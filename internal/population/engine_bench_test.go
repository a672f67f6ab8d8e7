package population

import (
	"fmt"
	"testing"
)

// Engine and mix-round micro-benchmarks. BenchmarkEngineNextRound runs
// the million-user geometry of scale-sda-ls (10^6 users, 10^4
// recipients, threshold rounds of 1024 messages); BenchmarkMixRound
// compares the three mix policies over a smaller population.

const (
	millionUsers = 1_000_000
	// millionRunRounds is one scale-sda-ls cell's round budget: the
	// benchmark rebuilds its engine off the clock after this many rounds,
	// so the warm population stays that of a real run.
	millionRunRounds = 192
)

// BenchmarkEngineNextRound times one threshold round of a million-user
// engine — the slab generation, the warming of first-time senders and
// the k-way shard merge — at cover 0 and 1, on one worker.
func BenchmarkEngineNextRound(b *testing.B) {
	for _, cover := range []float64{0, 1} {
		b.Run(fmt.Sprintf("cover=%g", cover), func(b *testing.B) {
			arrivals, build := modelPopulation(millionRcpts, cover)
			fresh := func() *Engine {
				e, err := NewLazyEngine(millionUsers, millionRcpts, arrivals, build)
				if err != nil {
					b.Fatal(err)
				}
				e.SetWorkers(1)
				return e
			}
			e := fresh()
			var r Round
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.Rounds() == millionRunRounds {
					b.StopTimer()
					e = fresh()
					b.StartTimer()
				}
				if err := e.NextRound(millionBatch, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMixRound times one observable round through each mix policy
// over 10^4 users with cover (batch 1024, 1000 recipients), after 50
// warm-up rounds.
func BenchmarkMixRound(b *testing.B) {
	const users, recipients, batch = 10_000, 1000, 1024
	for _, kind := range []MixKind{MixThreshold, MixPool, MixTimed} {
		b.Run(kind.String(), func(b *testing.B) {
			arrivals, build := modelPopulation(recipients, 1)
			e, err := NewLazyEngine(users, recipients, arrivals, build)
			if err != nil {
				b.Fatal(err)
			}
			e.SetWorkers(1)
			m, err := e.NewMix(MixSpec{Kind: kind}, batch)
			if err != nil {
				b.Fatal(err)
			}
			var r Round
			for i := 0; i < 50; i++ {
				if err := m.NextRound(&r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.NextRound(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
