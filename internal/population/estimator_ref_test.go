package population

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"linkpad/internal/xrand"
)

// estimator_ref_test.go: closed-form references for the arms-race
// estimators (estimator.go). The least-squares estimator must agree
// with a dense Gaussian-elimination oracle that solves the same normal
// equations by a different algorithm, and bit-identically with a dense
// mirror of its own accumulators; the ML estimator's EM refresh must
// agree with a reference EM whose E-step is the exhaustive Bayesian
// posterior enumerated over all 2^n per-message origin assignments,
// and bit-identically with the sparse-support EM it replaced.

// collectRounds drives an engine for R rounds through the threshold mix
// and records each round's egress (recipients) and per-target ingress
// (send count), the exact observation stream the estimators fold in.
type recordedRound struct {
	rcpts []int32
	cnt   int // the target's send count
}

func collectTargetRounds(t testing.TB, e *Engine, target int32, batch, rounds int) []recordedRound {
	t.Helper()
	var r Round
	out := make([]recordedRound, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := e.NextRound(batch, &r); err != nil {
			t.Fatal(err)
		}
		rec := recordedRound{rcpts: append([]int32(nil), r.Rcpts...)}
		for _, u := range r.Users {
			if u == target {
				rec.cnt++
			}
		}
		out = append(out, rec)
	}
	return out
}

// feedEstimator folds the recorded rounds into a fresh estimator of the
// given kind over nrcpt recipients, exactly as disclosure.observe would.
func feedEstimator(k EstimatorKind, nrcpt int, rounds []recordedRound) estimator {
	est := newEstimator(k, nrcpt)
	var r Round
	for _, rec := range rounds {
		r.Rcpts = rec.rcpts
		est.observe(&r, rec.cnt > 0, rec.cnt)
	}
	return est
}

// solve2x2Gauss solves [saa sab; sab sbb]·[p;q] = [say;sby] by Gaussian
// elimination with partial pivoting — deliberately not the Cramer's-rule
// expression the production estimator uses, so the two only agree if
// both are right.
func solve2x2Gauss(saa, sab, sbb, say, sby float64) (p float64) {
	m := [2][3]float64{{saa, sab, say}, {sab, sbb, sby}}
	if math.Abs(m[1][0]) > math.Abs(m[0][0]) {
		m[0], m[1] = m[1], m[0]
	}
	f := m[1][0] / m[0][0]
	for j := 1; j < 3; j++ {
		m[1][j] -= f * m[0][j]
	}
	q := m[1][2] / m[1][1]
	return (m[0][2] - m[0][1]*q) / m[0][0]
}

// TestLeastSquaresMatchesGaussianOracle: over populations up to N=64,
// the least-squares estimate at every recipient must match a
// dense oracle that re-accumulates the moments from the recorded rounds
// and solves each 2×2 system by Gaussian elimination.
func TestLeastSquaresMatchesGaussianOracle(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		recipients int
		cover      bool
		batch      int
		rounds     int
	}{
		{"small", 12, 40, false, 8, 400},
		{"cover", 24, 60, true, 16, 400},
		{"n64-sparse", 64, 800, false, 32, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(refUsers(t, tc.n, tc.recipients, tc.cover, false), tc.recipients)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(1)
			target := int32(tc.n / 2)
			rounds := collectTargetRounds(t, e, target, tc.batch, tc.rounds)
			est := feedEstimator(EstimatorLeastSquares, tc.recipients, rounds)
			if !est.ready() {
				t.Fatal("least-squares estimator not ready after the recorded rounds")
			}
			// Dense oracle: re-accumulate everything from the round list.
			var saa, sab, sbb float64
			say := make([]float64, tc.recipients)
			sby := make([]float64, tc.recipients)
			for _, rec := range rounds {
				a := float64(rec.cnt)
				b := float64(len(rec.rcpts) - rec.cnt)
				saa += a * a
				sab += a * b
				sbb += b * b
				for _, rc := range rec.rcpts {
					say[rc] += a
					sby[rc] += b
				}
			}
			if det := saa*sbb - sab*sab; !(det > 0) {
				t.Fatalf("oracle system degenerate (det=%v); pick a longer run", det)
			}
			for i := 0; i < tc.recipients; i++ {
				want := solve2x2Gauss(saa, sab, sbb, say[i], sby[i])
				if want < 0 {
					want = 0
				}
				got := est.estimateAt(int32(i))
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("recipient %d: LS %v vs Gaussian oracle %v", i, got, want)
				}
			}
		})
	}
}

// TestLSSparseMatchesDenseBitIdentical extends the bit-identity
// property (sda_ref_test.go) to the least-squares accumulators: a dense
// mirror fed the identical per-delivery additions in the identical
// order, one pass per right-hand side, must reproduce every estimate
// coordinate exactly; the support must be exactly the mirror's non-zero
// Say coordinates, a strict subset of the recipient space; and a
// snapshot/JSON/restore round trip must return the same support and
// estimates.
func TestLSSparseMatchesDenseBitIdentical(t *testing.T) {
	const n, recipients, batch, rounds = 48, 500, 8, 500
	e, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	target := int32(n / 3)
	recs := collectTargetRounds(t, e, target, batch, rounds)
	est := feedEstimator(EstimatorLeastSquares, recipients, recs).(*lsEstimator)

	// Dense mirror: the same per-delivery additions in the same order.
	var saa, sab, sbb float64
	say := make([]float64, recipients)
	sby := make([]float64, recipients)
	for _, rec := range recs {
		a := float64(rec.cnt)
		b := float64(len(rec.rcpts) - rec.cnt)
		saa += a * a
		sab += a * b
		sbb += b * b
		if a > 0 {
			for _, rc := range rec.rcpts {
				say[rc] += a
			}
		}
		if b > 0 {
			for _, rc := range rec.rcpts {
				sby[rc] += b
			}
		}
	}
	if saa != est.saa || sab != est.sab || sbb != est.sbb {
		t.Fatalf("scalar moments differ: estimator (%v,%v,%v) mirror (%v,%v,%v)",
			est.saa, est.sab, est.sbb, saa, sab, sbb)
	}
	if !est.ready() {
		t.Fatal("estimator not ready")
	}
	inv := 1 / (saa*sbb - sab*sab)
	support := 0
	for i := 0; i < recipients; i++ {
		want := (sbb*say[i] - sab*sby[i]) * inv
		if want < 0 {
			want = 0
		}
		if got := est.estimateAt(int32(i)); got != want {
			t.Fatalf("recipient %d: estimate %v != dense mirror %v (bit-identity)", i, got, want)
		}
		if say[i] != 0 {
			support++
		}
	}
	if nnz := len(est.support()); nnz != support {
		t.Fatalf("say support %d, dense mirror has %d non-zeros", nnz, support)
	}
	if support >= recipients {
		t.Fatalf("say support saturated the %d-recipient space; the sparsity property is vacuous", recipients)
	}

	// Restore round trip: snapshot, JSON, restore into a fresh estimator;
	// the support and every estimate come back bit-identical.
	var ts TargetEstimatorState
	est.snapshot(&ts)
	data, err := json.Marshal(&ts)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TargetEstimatorState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back := newEstimator(EstimatorLeastSquares, recipients)
	if err := back.restore(&decoded, recipients); err != nil {
		t.Fatal(err)
	}
	if !back.ready() {
		t.Fatal("restored estimator not ready")
	}
	if !slices.Equal(back.support(), est.support()) {
		t.Fatalf("restored support %v, want %v", back.support(), est.support())
	}
	for i := int32(0); i < recipients; i++ {
		if got, want := back.estimateAt(i), est.estimateAt(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("recipient %d: restored estimate %v != %v", i, got, want)
		}
	}
}

// exhaustivePosterior computes, by brute force over all 2^n independent
// origin assignments, the Bayesian posterior that each message of a
// round originated from the target — the mixture model's E-step ground
// truth. Each message is a priori the target's with probability a/n and
// then draws its recipient from p, else from q.
func exhaustivePosterior(rcpts []int32, a int, p, q []float64) []float64 {
	n := len(rcpts)
	prior := float64(a) / float64(n)
	post := make([]float64, n)
	var total float64
	for mask := 0; mask < 1<<n; mask++ {
		w := 1.0
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				w *= prior * p[rcpts[k]]
			} else {
				w *= (1 - prior) * q[rcpts[k]]
			}
		}
		total += w
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				post[k] += w
			}
		}
	}
	for k := range post {
		post[k] /= total
	}
	return post
}

// TestMLRefreshMatchesExhaustivePosteriorEM: run the production ML
// estimator on rounds of at most 8 messages, then replay the identical
// EM schedule in a dense reference whose E-step uses the exhaustive
// 2^n-assignment posterior instead of the closed form. The trajectories
// must coincide — the closed form IS the exact posterior under the
// mixture model — so the final estimates agree to float tolerance, and
// the refresh must not have decreased the exact grouped log-likelihood
// relative to its own initializer.
func TestMLRefreshMatchesExhaustivePosteriorEM(t *testing.T) {
	const n, recipients, batch, rounds = 10, 24, 6, 300
	e, err := NewEngine(refUsers(t, n, recipients, false, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	target := int32(2)
	recs := collectTargetRounds(t, e, target, batch, rounds)
	for _, rec := range recs {
		if len(rec.rcpts) > 8 {
			t.Fatalf("round carries %d messages; the exhaustive oracle needs n <= 8", len(rec.rcpts))
		}
	}
	est := feedEstimator(EstimatorML, recipients, recs).(*mlEstimator)
	if !est.ready() {
		t.Fatal("ML estimator not ready after the recorded rounds")
	}

	// Reference EM over the raw (ungrouped) round list: same init as
	// refresh() — p from with-round deliveries, q from all — then
	// mlEMIters sweeps whose E-step is the exhaustive posterior.
	p := make([]float64, recipients)
	q := make([]float64, recipients)
	for _, rec := range recs {
		for _, rc := range rec.rcpts {
			q[rc]++
			if rec.cnt > 0 {
				p[rc]++
			}
		}
	}
	normalizeDense := func(v []float64) {
		var tot float64
		for _, x := range v {
			tot += x
		}
		for i := range v {
			v[i] /= tot
		}
	}
	normalizeDense(p)
	normalizeDense(q)
	logLik := func(p, q []float64) float64 {
		var ll float64
		for _, rec := range recs {
			a := float64(rec.cnt)
			b := float64(len(rec.rcpts) - rec.cnt)
			for _, rc := range rec.rcpts {
				ll += math.Log(a*p[rc] + b*q[rc])
			}
		}
		return ll
	}
	initLik := logLik(p, q)
	tp := make([]float64, recipients)
	tq := make([]float64, recipients)
	for iter := 0; iter < mlEMIters; iter++ {
		for i := range tp {
			tp[i], tq[i] = 0, 0
		}
		for _, rec := range recs {
			post := exhaustivePosterior(rec.rcpts, rec.cnt, p, q)
			for k, rc := range rec.rcpts {
				tp[rc] += post[k]
				tq[rc] += 1 - post[k]
			}
		}
		normalizeDense(tp)
		normalizeDense(tq)
		copy(p, tp)
		copy(q, tq)
	}
	for i := 0; i < recipients; i++ {
		got := est.estimateAt(int32(i))
		if math.Abs(got-p[i]) > 1e-9 {
			t.Fatalf("recipient %d: ML estimate %v vs exhaustive-posterior EM %v", i, got, p[i])
		}
	}
	// EM must improve (or hold) the exact likelihood over its initializer.
	if got := logLik(est.p, est.q); got < initLik-1e-9 {
		t.Fatalf("EM decreased the log-likelihood: init %v, after refresh %v", initLik, got)
	}
}

// TestMLGroupingIsExact: folding rounds in a different order produces
// the same grouped sufficient statistics, and the (a, n) group list
// stays sorted with exact counts — the grouping loses nothing the
// mixture likelihood depends on.
func TestMLGroupingIsExact(t *testing.T) {
	const n, recipients, batch, rounds = 16, 40, 8, 250
	e, err := NewEngine(refUsers(t, n, recipients, true, false), recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	recs := collectTargetRounds(t, e, 5, batch, rounds)
	fwd := feedEstimator(EstimatorML, recipients, recs).(*mlEstimator)
	rev := newEstimator(EstimatorML, recipients).(*mlEstimator)
	var r Round
	for i := len(recs) - 1; i >= 0; i-- {
		r.Rcpts = recs[i].rcpts
		rev.observe(&r, recs[i].cnt > 0, recs[i].cnt)
	}
	if len(fwd.groups) != len(rev.groups) {
		t.Fatalf("group counts differ: %d forward vs %d reversed", len(fwd.groups), len(rev.groups))
	}
	var totalRounds float64
	for gi := range fwd.groups {
		a, b := &fwd.groups[gi], &rev.groups[gi]
		if a.a != b.a || a.n != b.n || a.c != b.c {
			t.Fatalf("group %d keys differ: (%d,%d,%v) vs (%d,%d,%v)", gi, a.a, a.n, a.c, b.a, b.n, b.c)
		}
		if a.y.nnz() != b.y.nnz() {
			t.Fatalf("group %d y supports differ: %d vs %d", gi, a.y.nnz(), b.y.nnz())
		}
		if gi > 0 {
			prev := &fwd.groups[gi-1]
			if prev.a > a.a || (prev.a == a.a && prev.n >= a.n) {
				t.Fatalf("groups not ascending at %d", gi)
			}
		}
		for k, idx := range a.y.idx {
			if got := b.y.get(idx); got != a.y.val[k] {
				t.Fatalf("group %d y[%d] differs: %v vs %v", gi, idx, a.y.val[k], got)
			}
		}
		totalRounds += a.c
	}
	if totalRounds != float64(rounds) {
		t.Fatalf("groups account for %v rounds, want %d", totalRounds, rounds)
	}
}

// sparseMLRef is the ML refresh in its sparse form, kept only as the
// bit-identity oracle for mlEstimator.refresh: p and q are sparse
// vectors over the with-round and full observed supports, the M-step
// scratch is aligned with their coordinate lists, and every E-step
// lookup binary-searches them.
type sparseMLRef struct {
	p, q   sparseVec
	tp, tq []float64
}

func (m *sparseMLRef) refresh(groups []mlGroup) {
	m.p.idx, m.p.val = m.p.idx[:0], m.p.val[:0]
	m.q.idx, m.q.val = m.q.idx[:0], m.q.val[:0]
	for gi := range groups {
		g := &groups[gi]
		for k, r := range g.y.idx {
			m.q.add(r, g.y.val[k])
			if g.a > 0 {
				m.p.add(r, g.y.val[k])
			}
		}
	}
	normalizeSparse(&m.p)
	normalizeSparse(&m.q)
	if len(m.p.idx) == 0 || len(m.q.idx) == 0 {
		return
	}
	m.tp = make([]float64, len(m.p.idx))
	m.tq = make([]float64, len(m.q.idx))
	for iter := 0; iter < mlEMIters; iter++ {
		for i := range m.tp {
			m.tp[i] = 0
		}
		for i := range m.tq {
			m.tq[i] = 0
		}
		for gi := range groups {
			g := &groups[gi]
			a, b := float64(g.a), float64(g.n-g.a)
			for k, r := range g.y.idx {
				y := g.y.val[k]
				qi, _ := m.q.find(r) // q spans the full support
				var pv float64
				pi, pok := m.p.find(r)
				if pok {
					pv = m.p.val[pi]
				}
				den := a*pv + b*m.q.val[qi]
				if den <= 0 {
					continue
				}
				w := a * pv / den
				if pok {
					m.tp[pi] += y * w
				}
				m.tq[qi] += y * (1 - w)
			}
		}
		var sp, sq float64
		for _, v := range m.tp {
			sp += v
		}
		for _, v := range m.tq {
			sq += v
		}
		if sp > 0 {
			for i := range m.tp {
				m.p.val[i] = m.tp[i] / sp
			}
		}
		if sq > 0 {
			for i := range m.tq {
				m.q.val[i] = m.tq[i] / sq
			}
		}
	}
}

// normalizeSparse scales a non-negative sparse vector to unit sum in
// place (no-op on a zero vector).
func normalizeSparse(v *sparseVec) {
	var total float64
	for _, x := range v.val {
		total += x
	}
	if total <= 0 {
		return
	}
	inv := 1 / total
	for i := range v.val {
		v.val[i] *= inv
	}
}

// syntheticMLRounds draws an ML observation stream from seed: each
// round carries n ∈ [1, maxN] messages; half the rounds are without the
// target (a = 0), the rest have a ∈ [1, n] target messages, so groups
// with no background (a = n) occur too. Target messages go to the first
// `contacts` recipients, the rest uniformly anywhere in [0, nrcpt).
func syntheticMLRounds(seed uint64, rounds, maxN, contacts, nrcpt int) []recordedRound {
	rng := xrand.New(seed)
	out := make([]recordedRound, rounds)
	for i := range out {
		n := 1 + rng.Intn(maxN)
		a := 0
		if rng.Bernoulli(0.5) {
			a = 1 + rng.Intn(n)
		}
		rcpts := make([]int32, n)
		for k := range rcpts {
			if k < a {
				rcpts[k] = int32(rng.Intn(contacts))
			} else {
				rcpts[k] = int32(rng.Intn(nrcpt))
			}
		}
		out[i] = recordedRound{rcpts: rcpts, cnt: a}
	}
	return out
}

// requireMLMatchesSparseRef refreshes est and the sparse oracle over the
// same groups and demands bit-identical supports, p and q at every
// recipient.
func requireMLMatchesSparseRef(t *testing.T, est *mlEstimator, nrcpt int, at string) {
	t.Helper()
	if !est.ready() {
		return
	}
	var ref sparseMLRef
	ref.refresh(est.groups)
	if !slices.Equal(est.support(), ref.p.idx) {
		t.Fatalf("%s: support %v, sparse oracle %v", at, est.support(), ref.p.idx)
	}
	for i := int32(0); int(i) < nrcpt; i++ {
		if got, want := est.estimateAt(i), ref.p.get(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: p[%d] = %v, sparse oracle %v", at, i, got, want)
		}
		if got, want := est.q[i], ref.q.get(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q[%d] = %v, sparse oracle %v", at, i, got, want)
		}
	}
}

// TestMLDenseRefreshMatchesSparseReference: the dense ML refresh must
// reproduce the sparse-support EM bit for bit — same support, same
// float at every p and q coordinate — at checkpoints throughout a run,
// on engine streams and on seeded synthetic streams, and across a
// mid-run snapshot/restore, whose continuation must also equal the
// uninterrupted estimator exactly.
func TestMLDenseRefreshMatchesSparseReference(t *testing.T) {
	type geometry struct {
		name   string
		nrcpt  int
		rounds []recordedRound
	}
	var geoms []geometry
	for _, tc := range []struct {
		name              string
		n, nrcpt, batch   int
		cover             bool
		target, numRounds int
	}{
		{"arms-race", 24, 60, 48, true, 7, 240},
		{"no-cover", 12, 40, 8, false, 3, 240},
		{"sparse-n64", 64, 800, 32, false, 20, 200},
	} {
		e, err := NewEngine(refUsers(t, tc.n, tc.nrcpt, tc.cover, false), tc.nrcpt)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(1)
		geoms = append(geoms, geometry{tc.name, tc.nrcpt,
			collectTargetRounds(t, e, int32(tc.target), tc.batch, tc.numRounds)})
	}
	for _, seed := range []uint64{0x6d6c0001, 0x6d6c0002, 0x6d6c0003} {
		t.Logf("synthetic stream seed %#x", seed)
		geoms = append(geoms, geometry{
			name:   "synthetic",
			nrcpt:  50,
			rounds: syntheticMLRounds(seed, 240, 12, 4, 50),
		})
	}
	for _, g := range geoms {
		label := func(i int) string { return fmt.Sprintf("%s after round %d", g.name, i+1) }
		est := newEstimator(EstimatorML, g.nrcpt).(*mlEstimator)
		var resumed *mlEstimator
		var r Round
		checks := 0
		for i, rec := range g.rounds {
			r.Rcpts = rec.rcpts
			est.observe(&r, rec.cnt > 0, rec.cnt)
			if resumed != nil {
				resumed.observe(&r, rec.cnt > 0, rec.cnt)
			}
			if i%20 != 19 {
				continue
			}
			requireMLMatchesSparseRef(t, est, g.nrcpt, label(i))
			if est.ready() {
				checks++
			}
			if resumed != nil {
				requireMLMatchesSparseRef(t, resumed, g.nrcpt, "resumed "+label(i))
				if !slices.Equal(resumed.support(), est.support()) || !slices.Equal(resumed.p, est.p) {
					t.Fatalf("%s: resumed estimate differs from the uninterrupted one", label(i))
				}
			}
			if i == len(g.rounds)/2-1 {
				var ts TargetEstimatorState
				est.snapshot(&ts)
				resumed = newEstimator(EstimatorML, g.nrcpt).(*mlEstimator)
				if err := resumed.restore(&ts, g.nrcpt); err != nil {
					t.Fatal(err)
				}
			}
		}
		if checks < 5 {
			t.Fatalf("%s: only %d checkpoints had an estimate; the comparison is vacuous", g.name, checks)
		}
	}
}
