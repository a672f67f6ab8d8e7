package population

import (
	"math"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// alloc_test.go: the engine's allocation discipline. Setting up a lazy
// population allocates per shard, never per user, and warming a user
// costs the builder's own allocations plus a share of its shard's state
// chunk.

// modelPopulation returns a pure arrivals function and builder shaped
// like core's populations: two striped Poisson payload classes (10 and
// 40 pps), cover at coverRate × the payload rate (none at 0), and a
// 3-contact profile. Both read the user's Sources, so the arrivals
// function allocates nothing.
func modelPopulation(recipients int, coverRate float64) (Arrivals, Builder) {
	// sources gives each user three private role streams: payload, cover
	// and recipient draws.
	sources := func(u int) Sources {
		rate := 10 + 30*float64(u%2)
		return Sources{
			Payload:     traffic.Model{Kind: traffic.ModelPoisson, Rate: rate},
			Cover:       traffic.Model{Kind: traffic.ModelPoisson, Rate: coverRate * rate},
			PayloadSeed: uint64(4 * u),
			CoverSeed:   uint64(4*u + 1),
		}
	}
	arrivals := func(u int) (Frontier, error) { return sources(u).Frontier() }
	build := func(u int) (User, error) {
		msgs, cov, err := sources(u).Build()
		if err != nil {
			return User{}, err
		}
		prng := xrand.New(uint64(4*u + 2))
		prof, err := NewProfile(recipients, 3, 0.7, prng)
		if err != nil {
			return User{}, err
		}
		return User{Class: u % 2, Messages: msgs, Cover: cov, Profile: prof, RNG: prng}, nil
	}
	return arrivals, build
}

// TestLazyEngineInitAllocs: constructing a lazy engine over 10^5 users
// allocates at most one object per shard, and as many as over a tenth
// of the users split into the same number of shards — the count does
// not grow with N. The slack of two absorbs the runtime's bookkeeping
// for the init pass's worker goroutines.
func TestLazyEngineInitAllocs(t *testing.T) {
	const n, recipients = 100_000, 1000
	arrivals, build := modelPopulation(recipients, 1)
	shards := (n + defaultShardSize - 1) / defaultShardSize
	allocs := func(users, shardSize int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := newLazyEngine(users, recipients, shardSize, arrivals, build); err != nil {
				t.Fatal(err)
			}
		})
	}
	big := allocs(n, defaultShardSize)
	smallShard := (n/10 + shards - 1) / shards
	if got := (n/10 + smallShard - 1) / smallShard; got != shards {
		t.Fatalf("test setup: %d shards over %d users, want %d", got, n/10, shards)
	}
	small := allocs(n/10, smallShard)
	t.Logf("%d users: %v allocations; %d users: %v; %d shards", n, big, n/10, small, shards)
	if big > float64(shards) {
		t.Errorf("construction over %d users made %v allocations, more than its %d shards", n, big, shards)
	}
	if math.Abs(big-small) > 2 {
		t.Errorf("construction allocations grow with N at a fixed shard count: %v at %d users, %v at %d",
			big, n, small, n/10)
	}
}

// TestWarmUpAllocs: warming a user costs the builder's own allocations
// plus its share of one state chunk per stateChunk users — no per-user
// merge object and no per-user state allocation.
func TestWarmUpAllocs(t *testing.T) {
	const n, recipients = 4096, 1000
	arrivals, build := modelPopulation(recipients, 1)
	perBuild := testing.AllocsPerRun(50, func() {
		if _, err := build(7); err != nil {
			t.Fatal(err)
		}
	})
	// One shard, warmed in user order: each call fills exactly one chunk.
	e, err := newLazyEngine(n, recipients, n, arrivals, build)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	perChunk := testing.AllocsPerRun(20, func() {
		for i := 0; i < stateChunk; i++ {
			if _, err := e.Class(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	t.Logf("builder: %v allocations a user; warming %d users: %v", perBuild, stateChunk, perChunk)
	if limit := stateChunk*perBuild + 1; perChunk > limit {
		t.Errorf("warming %d users made %v allocations, want at most %v (builder's %v each plus one chunk)",
			stateChunk, perChunk, limit, perBuild)
	}
	if e.WarmUsers() != next {
		t.Fatalf("%d users warmed, WarmUsers reports %d", next, e.WarmUsers())
	}
}
