package population

import "testing"

// Estimator micro-benchmarks at the ext-sda-arms-race geometry: 24
// users with cover traffic, 60 recipients, rounds of 48 messages. Each
// kind is fed a 400-round warm-up stream first, so the sparse
// accumulators' supports have saturated and the numbers are the steady
// state a long disclosure run sees.

const (
	benchUsers  = 24
	benchRcpts  = 60
	benchBatch  = 48
	benchRounds = 400
	benchTarget = 5
)

var benchKinds = []EstimatorKind{EstimatorClassic, EstimatorLeastSquares, EstimatorML}

// benchStream records the arms-race geometry's observation stream for
// the benchmark target.
func benchStream(tb testing.TB) []recordedRound {
	tb.Helper()
	e, err := NewEngine(refUsers(tb, benchUsers, benchRcpts, true, false), benchRcpts)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkers(1)
	return collectTargetRounds(tb, e, benchTarget, benchBatch, benchRounds)
}

// TestMLRefreshAllocFree: once warm, an ML refresh reuses its dense
// arrays and support buffer, so the per-round refreshes of an
// adaptive-dummy run allocate nothing.
func TestMLRefreshAllocFree(t *testing.T) {
	ml := feedEstimator(EstimatorML, benchRcpts, benchStream(t)).(*mlEstimator)
	if !ml.ready() {
		t.Fatal("ML estimator not ready after the warm-up stream")
	}
	allocs := testing.AllocsPerRun(50, func() {
		ml.dirty = true
		ml.ready()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ML refresh allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkEstimatorObserve times folding one round into a warm
// estimator.
func BenchmarkEstimatorObserve(b *testing.B) {
	recs := benchStream(b)
	for _, k := range benchKinds {
		b.Run(k.String(), func(b *testing.B) {
			est := feedEstimator(k, benchRcpts, recs)
			var r Round
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := &recs[i%len(recs)]
				r.Rcpts = rec.rcpts
				est.observe(&r, rec.cnt > 0, rec.cnt)
			}
		})
	}
}

// BenchmarkEstimatorRefresh times what a consumer pays to read a fresh
// estimate after an observe: ready() (for ML the full 12-sweep EM
// refresh, forced by marking the statistics dirty) followed by one read
// of every support coordinate, as suspects() and anonymity() do.
func BenchmarkEstimatorRefresh(b *testing.B) {
	recs := benchStream(b)
	for _, k := range benchKinds {
		b.Run(k.String(), func(b *testing.B) {
			est := feedEstimator(k, benchRcpts, recs)
			ml, _ := est.(*mlEstimator)
			if !est.ready() { // first refresh sizes the support buffer
				b.Fatal("estimator not ready after the warm-up stream")
			}
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ml != nil {
					ml.dirty = true
				}
				if !est.ready() {
					b.Fatal("estimator not ready after the warm-up stream")
				}
				for _, r := range est.support() {
					sink += est.estimateAt(r)
				}
			}
			if sink < 0 {
				b.Fatal("negative estimate mass")
			}
		})
	}
}
