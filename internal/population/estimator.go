package population

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"linkpad/internal/obs"
)

// Disclosure estimators (estimator.go): the attack side of the SDA arms
// race. The original round-contrast estimator (Danezis' SDA) survives as
// EstimatorClassic; the refinements of Emamdoost et al. ("Statistical
// Disclosure: Improved, Extended, and Resisted") add two stronger
// variants behind a common interface:
//
//   - classic: difference of conditional mean egress vectors between
//     rounds the target sent in and rounds it did not — the binary
//     presence contrast;
//   - least-squares: regress each round's egress vector on the target's
//     actual send count a_i and the background count b_i, solving the
//     per-recipient 2×2 normal equations in closed form. Using counts
//     instead of presence extracts more signal per round, so disclosure
//     needs fewer rounds;
//   - ML: an iterative EM estimator for the mixture model "each of a
//     round's n_i messages is the target's with probability a_i/n_i and
//     draws its recipient from p, else from the background q". Rounds
//     enter the estimator only through the sufficient statistics
//     grouped by (a_i, n_i) — the per-message posterior depends on a
//     round only through that pair — so memory is bounded by the
//     observed support times the distinct (a, n) keys, never by the
//     round count.
//
// All three estimators keep their per-recipient state in dense
// recipient-indexed arrays, sized once from the recipient count (the
// largest recipient space any runner uses is 10^4, so one array per
// accumulator costs at most 80 KB a target): the classic conditional
// sums, the least-squares right-hand sides, and the ML estimate with
// its M-step scratch and initial counts. A delivery is one array
// update, with no search.
// Only the ML estimator's per-(a, n) egress counts stay sparse
// (sparse.go), since they multiply with the number of distinct keys.
// All three expose the same contract to the shared disclosure harness:
// an ascending candidate support that contains every strictly positive
// estimate coordinate, and a pointwise estimate. That contract is
// exactly what topK and the anonymity entropy need to reproduce their
// dense-sweep formulations bit-for-bit (sda_ref_test.go checks the
// harness against a dense reference).

// EstimatorKind selects the statistical-disclosure estimator.
type EstimatorKind int

const (
	// EstimatorClassic is the original round-contrast SDA: the clamped
	// difference of conditional mean egress vectors.
	EstimatorClassic EstimatorKind = iota
	// EstimatorLeastSquares solves the per-recipient least-squares
	// system over (target count, background count) regressors.
	EstimatorLeastSquares
	// EstimatorML runs the iterative EM mixture estimator over grouped
	// sufficient statistics.
	EstimatorML
)

// String names the kind for tables and errors.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorClassic:
		return "classic"
	case EstimatorLeastSquares:
		return "least-squares"
	case EstimatorML:
		return "ml"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// validEstimator reports whether k names an estimator.
func validEstimator(k EstimatorKind) bool {
	return k >= EstimatorClassic && k <= EstimatorML
}

// estimator is one target's running disclosure estimator. The contract
// the shared harness (topK, anonymity, checkpoint) relies on:
//
//   - observe folds one round; sent/cnt are the target's presence and
//     send count in it (the ingress view). Rounds masked by the
//     churn-aware filter never reach observe.
//   - ready reports whether a pointwise estimate exists, caching
//     whatever reciprocals estimateAt needs; it must be called before
//     estimateAt and is idempotent between observes.
//   - support returns the ascending coordinate set containing every
//     strictly positive estimate; coordinates outside it evaluate to
//     exactly 0. Like estimateAt it is valid after a true ready.
//   - snapshot/restore serialize the accumulators into the target's
//     slot of a disclosure checkpoint.
type estimator interface {
	observe(r *Round, sent bool, cnt int)
	ready() bool
	support() []int32
	estimateAt(i int32) float64
	snapshot(ts *TargetEstimatorState)
	restore(ts *TargetEstimatorState, nrcpt int) error
}

// newEstimator builds the estimator for one target over nrcpt
// recipients.
func newEstimator(k EstimatorKind, nrcpt int) estimator {
	switch k {
	case EstimatorLeastSquares:
		return &lsEstimator{say: make([]float64, nrcpt), sby: make([]float64, nrcpt)}
	case EstimatorML:
		return newMLEstimator(nrcpt)
	default:
		return &classicEstimator{sumWith: make([]float64, nrcpt), sumWithout: make([]float64, nrcpt)}
	}
}

// nonzeroSupport refills sup with the ascending coordinates at which v
// is non-zero.
func nonzeroSupport(sup []int32, v []float64) []int32 {
	sup = sup[:0]
	for r, x := range v {
		if x != 0 {
			sup = append(sup, int32(r))
		}
	}
	return sup
}

// compressCounts is the snapshot form of a dense count accumulator: its
// non-zero coordinates in ascending order.
func compressCounts(v []float64) SparseCounts {
	var sv sparseVec
	sv.compress(v)
	return SparseCounts{Idx: sv.idx, Val: sv.val}
}

// scatterCounts validates a snapshot accumulator and writes it into the
// dense accumulator dst, the exact inverse of compressCounts. Every
// value must be a positive count: a live accumulator never holds an
// explicit zero, so its non-zero support is the snapshot's support.
func scatterCounts(dst []float64, s *SparseCounts, what string) error {
	if err := s.validate(what, len(dst)); err != nil {
		return err
	}
	for _, x := range s.Val {
		if !(x > 0) {
			return fmt.Errorf("population: snapshot %s holds non-positive count %v", what, x)
		}
	}
	(&sparseVec{idx: s.Idx, val: s.Val}).scatter(dst)
	return nil
}

// classicEstimator is the original round-contrast estimator: dense
// conditional-sum accumulators and the clamped difference of means.
// Every float operation and its order are those of the pre-interface
// targetState, so tables produced through the interface are
// byte-identical to the pre-refactor ones.
type classicEstimator struct {
	sumWith    []float64 // deliveries by recipient in rounds the target sent in
	sumWithout []float64 // deliveries by recipient in the other rounds
	nWith      int
	nWithout   int
	iw, iwo    float64 // 1/nWith, 1/nWithout, refreshed by ready
	sup        []int32 // ascending non-zero sumWith coordinates
	supStale   bool    // an observe added a coordinate to sumWith's support
}

func (c *classicEstimator) observe(r *Round, sent bool, _ int) {
	if !sent {
		c.nWithout++
		for _, rc := range r.Rcpts {
			c.sumWithout[rc]++
		}
		return
	}
	c.nWith++
	for _, rc := range r.Rcpts {
		if c.sumWith[rc] == 0 {
			c.supStale = true
		}
		c.sumWith[rc]++
	}
}

func (c *classicEstimator) ready() bool {
	if c.nWith == 0 || c.nWithout == 0 {
		return false
	}
	c.iw, c.iwo = 1/float64(c.nWith), 1/float64(c.nWithout)
	if c.supStale {
		c.sup = nonzeroSupport(c.sup, c.sumWith)
		c.supStale = false
	}
	return true
}

func (c *classicEstimator) support() []int32 { return c.sup }

// estimateAt evaluates the clamped difference of conditional egress
// means at coordinate i — the exact float expression the dense
// estimator computed per entry. Coordinates outside sumWith's support
// evaluate to exactly 0 (the difference is ≤ 0 there and clamps).
func (c *classicEstimator) estimateAt(i int32) float64 {
	v := c.sumWith[i]*c.iw - c.sumWithout[i]*c.iwo
	if v < 0 {
		v = 0
	}
	return v
}

func (c *classicEstimator) snapshot(ts *TargetEstimatorState) {
	ts.SumWith = compressCounts(c.sumWith)
	ts.SumWithout = compressCounts(c.sumWithout)
	ts.NWith = c.nWith
	ts.NWithout = c.nWithout
}

func (c *classicEstimator) restore(ts *TargetEstimatorState, _ int) error {
	if err := scatterCounts(c.sumWith, &ts.SumWith, "sum_with"); err != nil {
		return err
	}
	if err := scatterCounts(c.sumWithout, &ts.SumWithout, "sum_without"); err != nil {
		return err
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	c.nWith = ts.NWith
	c.nWithout = ts.NWithout
	c.supStale = true
	return nil
}

// lsEstimator is the least-squares SDA: model round i's egress count at
// recipient r as y_i[r] ≈ a_i·p[r] + b_i·q[r], where a_i is the
// target's send count and b_i everyone else's, and solve the normal
// equations
//
//	[Saa Sab] [p[r]]   [Say[r]]
//	[Sab Sbb] [q[r]] = [Sby[r]]
//
// per recipient. The three scalar moments are shared across recipients;
// the two right-hand-side vectors are dense by recipient: Say[r] gains
// a_i per delivery to r (only in rounds the target sent, so its
// support — the only place a positive estimate can live — stays as
// small as the classic estimator's), Sby[r] gains b_i per delivery. All
// accumulator values are integer-valued float64s, exact below 2^53.
type lsEstimator struct {
	saa, sab, sbb float64
	say, sby      []float64
	nWith         int
	nWithout      int
	inv           float64 // 1/det, refreshed by ready
	sup           []int32 // ascending non-zero say coordinates
	supStale      bool    // an observe added a coordinate to say's support
}

func (l *lsEstimator) observe(r *Round, sent bool, cnt int) {
	a := float64(cnt)
	b := float64(len(r.Rcpts) - cnt)
	l.saa += a * a
	l.sab += a * b
	l.sbb += b * b
	if sent {
		l.nWith++
	} else {
		l.nWithout++
	}
	// Say and Sby are separate arrays, so one pass adds to both in the
	// per-coordinate order two passes would.
	for _, rc := range r.Rcpts {
		if a > 0 {
			if l.say[rc] == 0 {
				l.supStale = true
			}
			l.say[rc] += a
		}
		if b > 0 {
			l.sby[rc] += b
		}
	}
}

// ready requires a non-degenerate system: det = Saa·Sbb − Sab² is
// positive once the observed (a_i, b_i) pairs are not all collinear —
// in practice one round with and one without the target.
func (l *lsEstimator) ready() bool {
	det := l.saa*l.sbb - l.sab*l.sab
	if !(det > 0) {
		return false
	}
	l.inv = 1 / det
	if l.supStale {
		l.sup = nonzeroSupport(l.sup, l.say)
		l.supStale = false
	}
	return true
}

func (l *lsEstimator) support() []int32 { return l.sup }

// estimateAt solves the 2×2 system at coordinate i by Cramer's rule,
// clamped at 0. A positive solution needs Say[i] > 0 (Sbb > 0 whenever
// det > 0, and Sab, Sby are non-negative), so every positive estimate
// lies inside say's support.
func (l *lsEstimator) estimateAt(i int32) float64 {
	v := (l.sbb*l.say[i] - l.sab*l.sby[i]) * l.inv
	if v < 0 {
		v = 0
	}
	return v
}

func (l *lsEstimator) snapshot(ts *TargetEstimatorState) {
	ts.NWith = l.nWith
	ts.NWithout = l.nWithout
	ts.LS = &LSEstimatorState{
		Saa: l.saa,
		Sab: l.sab,
		Sbb: l.sbb,
		Say: compressCounts(l.say),
		Sby: compressCounts(l.sby),
	}
}

func (l *lsEstimator) restore(ts *TargetEstimatorState, _ int) error {
	if ts.LS == nil {
		return errors.New("population: snapshot target has no least-squares state")
	}
	if err := scatterCounts(l.say, &ts.LS.Say, "ls say"); err != nil {
		return err
	}
	if err := scatterCounts(l.sby, &ts.LS.Sby, "ls sby"); err != nil {
		return err
	}
	if ts.LS.Saa < 0 || ts.LS.Sbb < 0 || ts.LS.Sab < 0 {
		return errors.New("population: snapshot least-squares moments must be non-negative")
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	l.saa, l.sab, l.sbb = ts.LS.Saa, ts.LS.Sab, ts.LS.Sbb
	l.nWith = ts.NWith
	l.nWithout = ts.NWithout
	l.supStale = true
	return nil
}

// mlEMIters is the fixed EM iteration budget per refresh. The estimate
// is recomputed from scratch at every dirty ready() call — never warm-
// started — so a resumed run's estimate is a pure function of the
// accumulated sufficient statistics, not of the checkpoint schedule.
const mlEMIters = 12

// mlGroup is one (a, n) equivalence class of observed rounds: c rounds
// in which the target sent a of the n messages, with their summed
// egress counts. Grouping is exact — the mixture model's per-message
// posterior depends on a round only through (a, n) — so the EM estimate
// from the groups equals the EM estimate from the full round list.
type mlGroup struct {
	a, n int32
	c    float64
	y    sparseVec
}

// mlEstimator is the iterative ML (EM) estimator for the round mixture
// model. The grouped statistics cost O(distinct (a, n) keys × observed
// support); the target estimate p, the background q it is jointly
// fitted with, their M-step scratch and the two initial counts are
// dense arrays indexed by recipient, sized once from the recipient
// count, so a refresh reads and writes coordinates directly. The
// estimate is recomputed by the first ready() after an observe: once
// per checkpoint without dummies, but about once per round per target
// under adaptive dummies, whose suspects() reads it every round
// (DESIGN.md has the cost model).
type mlEstimator struct {
	groups   []mlGroup // ascending by (a, n)
	nWith    int
	nWithout int
	dirty    bool
	sup      []int32   // ascending recipients with a positive initial p
	p, q     []float64 // target and background estimates by recipient
	tp, tq   []float64 // M-step scratch by recipient
	// yWith and yWithout count deliveries by recipient in the rounds
	// with a > 0 and a = 0: derived from the groups (restore rebuilds
	// them), kept by observe so a refresh need not re-sum the groups.
	yWith, yWithout []float64
}

// newMLEstimator sizes the dense estimate arrays for nrcpt recipients.
func newMLEstimator(nrcpt int) *mlEstimator {
	return &mlEstimator{
		p:        make([]float64, nrcpt),
		q:        make([]float64, nrcpt),
		tp:       make([]float64, nrcpt),
		tq:       make([]float64, nrcpt),
		yWith:    make([]float64, nrcpt),
		yWithout: make([]float64, nrcpt),
	}
}

// group locates or inserts the (a, n) group, keeping the slice sorted.
func (m *mlEstimator) group(a, n int32) *mlGroup {
	lo := sort.Search(len(m.groups), func(i int) bool {
		g := &m.groups[i]
		return g.a > a || (g.a == a && g.n >= n)
	})
	if lo < len(m.groups) && m.groups[lo].a == a && m.groups[lo].n == n {
		return &m.groups[lo]
	}
	m.groups = append(m.groups, mlGroup{})
	copy(m.groups[lo+1:], m.groups[lo:])
	m.groups[lo] = mlGroup{a: a, n: n}
	return &m.groups[lo]
}

// counts returns the initial count array a group with send count a
// adds its deliveries to.
func (m *mlEstimator) counts(a int32) []float64 {
	if a > 0 {
		return m.yWith
	}
	return m.yWithout
}

func (m *mlEstimator) observe(r *Round, sent bool, cnt int) {
	g := m.group(int32(cnt), int32(len(r.Rcpts)))
	g.c++
	y := m.counts(g.a)
	for _, rc := range r.Rcpts {
		g.y.add(rc, 1)
		y[rc]++
	}
	if sent {
		m.nWith++
	} else {
		m.nWithout++
	}
	m.dirty = true
}

func (m *mlEstimator) ready() bool {
	if m.nWith == 0 || m.nWithout == 0 {
		return false
	}
	if m.dirty {
		m.refresh()
		m.dirty = false
	}
	return true
}

// refresh recomputes the EM estimate from the grouped statistics:
// initialize p from the with-round deliveries and q from all
// deliveries, then run mlEMIters E+M sweeps. Initializing q from every
// round keeps q positive on the whole observed support, so every
// E-step denominator a·p[r] + b·q[r] is positive wherever y[r] > 0.
//
// The floats equal those of an EM over sparse p and q restricted to
// their observed supports (estimator_ref_test.go keeps that form as
// the oracle): the initial counts are integer-valued, the E-step visits
// groups in (a, n) order and entries in ascending recipient order, and
// every coordinate outside a support holds exactly +0, which adds
// nothing to the M-step sums.
//
// The a = 0 groups lead that order and are not swept. In them w is
// exactly +0 (a·p[r] = +0 over a positive b·q[r]: q stays positive on
// their support in every sweep, since they add their own counts to
// tq), so they add +0 to tp and their integer counts y to tq, which
// leaves tq at yWithout before the first a > 0 group. Each sweep
// starts tq there instead; the integer sums are exact in any order.
func (m *mlEstimator) refresh() {
	obs.Count(obs.PopulationMLRefresh, 1)
	p, q, tp, tq := m.p, m.q, m.tp, m.tq
	for r, c := range m.yWith {
		p[r] = c
		q[r] = m.yWithout[r] + c
	}
	m.sup = nonzeroSupport(m.sup, p)
	normalize(p)
	normalize(q)
	if len(m.sup) == 0 {
		return
	}
	obs.Count(obs.PopulationEMSweep, mlEMIters)
	lead := sort.Search(len(m.groups), func(i int) bool { return m.groups[i].a > 0 })
	swept := m.groups[lead:]
	for iter := 0; iter < mlEMIters; iter++ {
		clear(tp)
		copy(tq, m.yWithout)
		for gi := range swept {
			g := &swept[gi]
			emStep(float64(g.a), float64(g.n-g.a), g.y.idx, g.y.val, p, q, tp, tq)
		}
		// M-step: renormalize both components.
		rescaleInto(p, tp)
		rescaleInto(q, tq)
	}
}

// emStep is one group's E-step: it adds the expected target-origin
// mass of the group's y[r] deliveries to tp[r] and the rest to tq[r].
// The re-sliced locals let one bounds check on p[r] cover all four
// arrays.
func emStep(a, b float64, idx []int32, val, p, q, tp, tq []float64) {
	val = val[:len(idx)]
	q, tp, tq = q[:len(p)], tp[:len(p)], tq[:len(p)]
	for k, r := range idx {
		ap := a * p[r]
		den := ap + b*q[r]
		if den <= 0 {
			continue
		}
		w := ap / den
		y := val[k]
		tp[r] += y * w
		tq[r] += y * (1 - w)
	}
}

func (m *mlEstimator) support() []int32 { return m.sup }

func (m *mlEstimator) estimateAt(i int32) float64 { return m.p[i] }

func (m *mlEstimator) snapshot(ts *TargetEstimatorState) {
	ts.NWith = m.nWith
	ts.NWithout = m.nWithout
	st := &MLEstimatorState{Groups: make([]MLGroupState, len(m.groups))}
	for gi := range m.groups {
		g := &m.groups[gi]
		st.Groups[gi] = MLGroupState{
			A: g.a,
			N: g.n,
			C: g.c,
			Y: SparseCounts{
				Idx: append([]int32(nil), g.y.idx...),
				Val: append([]float64(nil), g.y.val...),
			},
		}
	}
	ts.ML = st
}

func (m *mlEstimator) restore(ts *TargetEstimatorState, nrcpt int) error {
	if ts.ML == nil {
		return errors.New("population: snapshot target has no ML state")
	}
	if ts.NWith < 0 || ts.NWithout < 0 {
		return errors.New("population: snapshot has negative round counts")
	}
	m.groups = m.groups[:0]
	clear(m.yWith)
	clear(m.yWithout)
	for gi := range ts.ML.Groups {
		gs := &ts.ML.Groups[gi]
		if gs.A < 0 || gs.N < 1 || gs.A > gs.N || gs.C < 1 {
			return fmt.Errorf("population: snapshot ML group %d has invalid (a=%d, n=%d, c=%v)",
				gi, gs.A, gs.N, gs.C)
		}
		if gi > 0 {
			prev := &ts.ML.Groups[gi-1]
			if prev.A > gs.A || (prev.A == gs.A && prev.N >= gs.N) {
				return fmt.Errorf("population: snapshot ML groups not ascending at index %d", gi)
			}
		}
		if err := gs.Y.validate(fmt.Sprintf("ml group %d", gi), nrcpt); err != nil {
			return err
		}
		// Live groups hold delivery counts; the refresh's exactness
		// (integer sums in any order, q > 0 on the a = 0 support) rests
		// on that.
		for _, x := range gs.Y.Val {
			if !(x >= 1 && x <= 1<<53 && x == math.Trunc(x)) {
				return fmt.Errorf("population: snapshot ML group %d holds non-count %v", gi, x)
			}
		}
		g := mlGroup{a: gs.A, n: gs.N, c: gs.C}
		g.y.setPairs(gs.Y.Idx, gs.Y.Val)
		m.groups = append(m.groups, g)
		y := m.counts(g.a)
		for k, r := range g.y.idx {
			y[r] += g.y.val[k]
		}
	}
	m.nWith = ts.NWith
	m.nWithout = ts.NWithout
	m.dirty = true
	return nil
}

// normalize scales a non-negative vector to unit sum in place (no-op
// on a zero vector).
func normalize(v []float64) {
	var total float64
	for _, x := range v {
		total += x
	}
	if total <= 0 {
		return
	}
	inv := 1 / total
	for i := range v {
		v[i] *= inv
	}
}

// rescaleInto writes t normalized to unit sum into dst, leaving dst
// unchanged when t sums to zero.
func rescaleInto(dst, t []float64) {
	var total float64
	for _, x := range t {
		total += x
	}
	if total <= 0 {
		return
	}
	for i, x := range t {
		dst[i] = x / total
	}
}
