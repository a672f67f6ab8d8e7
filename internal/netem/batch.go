package netem

import (
	"math"

	"linkpad/internal/obs"
	"linkpad/internal/slab"
	"linkpad/internal/traffic"
)

// Batched transforms (batch.go): every network element can process a
// slab of packet times in one call. A NextBatch(dst) call is defined as
// exactly equivalent to len(dst) successive Next() calls on the same
// element — each element owns its *xrand.Rand and the batch loop replays
// the identical per-packet draw sequence — so the emitted stream is
// bit-identical to the pull-driven one (enforced by the equivalence
// tests in batch_test.go).
//
// One-to-one elements (FastRouter, Router, Quantizer, Differ) transform
// the slab in place on top of their upstream's batch, so a whole chain
// batches through a single []float64 with no per-layer buffers and one
// interface call per slab per layer instead of one per packet.
//
// Variable-rate elements (LossyTap, Impairer) consume a data-dependent
// number of upstream packets per output. Their batch loops request
// upstream chunks sized to the outputs still owed, which preserves the
// output sequence and every layer's draw order exactly; an Impairer
// whose duplication produced more outputs than requested keeps the
// surplus queued for the next call, so its upstream may run ahead of the
// pull-driven equivalent by less than one chunk. That lookahead is
// invisible in the output and irrelevant to checkpointing: the
// checkpointed protocols snapshot traffic sources, which are never
// upstream of a mid-window Impairer batch.

// BatchStream is a TimeStream that can produce a batch of event times in
// one call. NextBatch fills dst entirely; it is equivalent to len(dst)
// Next calls.
type BatchStream interface {
	TimeStream
	NextBatch(dst []float64)
}

// FillBatch fills dst from s, using the batched path when s implements
// BatchStream and falling back to one Next call per element otherwise.
// Either way s advances by exactly len(dst) events.
func FillBatch(s TimeStream, dst []float64) {
	if b, ok := s.(BatchStream); ok {
		b.NextBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = s.Next()
	}
}

// ladderJ is the number of ladder counts the slab bounds resolve; a
// draw at K >= ladderJ (probability below ρ^ladderJ) is evaluated
// exactly.
const ladderJ = 12

// ladderDelta is the relative margin on every resolver threshold, and
// rhoSlack the absolute margin on a slab's ρ bounds. Both are some
// thousand times wider than the rounding error they absorb (a few ulps
// from cos, log, the powers and the division).
const (
	ladderDelta = 1e-12
	rhoSlack    = 1e-12
)

// ladder decides a packet's Pollaczek–Khinchine ladder count
// K = floor(log u / log ρ) by comparisons alone, for every ρ in a slab's
// bounds [lo, hi] ⊂ (0, maxRho]. K = j is certain when
// hi^(j+1)·(1+δ) < u ≤ lo^j·(1−δ): then ρ^(j+1) < u < ρ^j for every ρ in
// the bounds, with a relative gap of δ that no rounding in the exact
// expression can close. Draws in the thin bands between those intervals
// (and beyond j = ladderJ−1) report -1 and are evaluated exactly.
type ladder struct {
	up [ladderJ]float64 // up[j] = lo^j·(1−δ), j ≥ 1
	dn [ladderJ]float64 // dn[j] = hi^(j+1)·(1+δ)
}

func newLadder(lo, hi float64) ladder {
	var l ladder
	pl, ph := 1.0, hi
	for j := 1; j < ladderJ; j++ {
		pl *= lo
		ph *= hi
		l.up[j] = pl * (1 - ladderDelta)
		l.dn[j] = ph * (1 + ladderDelta)
	}
	return l
}

// count returns the ladder count of a uniform u ≤ hi, or -1 when u falls
// in a band the bounds cannot decide.
func (l *ladder) count(u float64) int {
	for j := 1; j < ladderJ; j++ {
		if u > l.dn[j] {
			if u <= l.up[j] {
				return j
			}
			return -1
		}
	}
	return -1
}

// rhoBounds returns bounds lo ≤ ρ ≤ hi on the clamped utilization every
// packet of the slab sees, with ok false when the slab must be sampled
// packet by packet: an unrecognized profile, ρ ≤ 0 somewhere (no ladder
// draw at all), or a diurnal slab that wraps midnight, spans a turning
// point of the cosine, or reaches the maxRho clamp.
func (r *FastRouter) rhoBounds(dst []float64) (lo, hi float64, ok bool) {
	switch u := r.util.(type) {
	case constUtil:
		rho := min(float64(u), maxRho)
		return rho, rho, rho > 0
	case diurnalUtil:
		// Scan for the extremes rather than trusting the endpoints: an
		// upstream Impairer may reorder packets. min/max propagate NaN,
		// which then fails every check below.
		tLo, tHi := math.Inf(1), math.Inf(-1)
		for _, t := range dst {
			tLo, tHi = min(tLo, t), max(tHi, t)
		}
		h0, h1 := u.startHour+tLo/3600, u.startHour+tHi/3600
		if !(h0 >= 0 && h1-h0 < 24) {
			return 0, 0, false
		}
		// Diurnal.At wraps the hour with math.Mod, which is exact, so
		// on a slab inside one day (m0 ≤ m1) the wrapped hour is a
		// monotone shift of t. Between the cosine's turning points
		// every operation from hour to ρ is then monotone up to cos's
		// ulp error, and ρ at the slab's extreme hours bounds every
		// packet's ρ once rhoSlack absorbs that error.
		m0, m1 := math.Mod(h0, 24), math.Mod(h1, 24)
		if m0 > m1 {
			return 0, 0, false
		}
		x0, x1 := m0-u.d.TroughHour, m1-u.d.TroughHour
		for _, turn := range [...]float64{-12, 0, 12} {
			if x0 <= turn && turn <= x1 {
				return 0, 0, false
			}
		}
		r0, r1 := u.d.At(h0), u.d.At(h1)
		lo, hi = min(r0, r1)-rhoSlack, max(r0, r1)+rhoSlack
		return lo, hi, lo > 0 && hi < maxRho
	}
	return 0, 0, false
}

// NextBatch fills dst with the departure times of the next len(dst)
// padded packets, drawing exactly what Next draws. For the constant and
// diurnal profiles it bounds the slab's ρ once and resolves each
// packet's ladder count from its uniform by comparison (see ladder);
// only draws in an undecided band pay for ρ(t) and two logarithms.
// Slabs rhoBounds rejects, and any other Util, sample packet by packet
// as Next does.
func (r *FastRouter) NextBatch(dst []float64) {
	FillBatch(r.upstream, dst)
	rng, s, prop := r.rng, r.service, r.prop
	lastOut, started := r.lastOut, r.started
	lo, hi, bounded := r.rhoBounds(dst)
	lad := newLadder(lo, hi)
	for i, t := range dst {
		var w float64
		if !bounded {
			rho := r.util.At(t)
			if rho < 0 {
				rho = 0
			}
			w = sampleMD1Wait(rho, s, rng)
		} else if u := rng.Float64Open(); u <= hi { // u > hi ≥ ρ is K = 0
			k := lad.count(u)
			if k < 0 {
				// The exact expression, as Geometric evaluates it;
				// u ≤ ρ < 1 keeps the quotient non-negative, so its
				// K < 0 guard cannot fire.
				rho := min(r.util.At(t), maxRho)
				k = 0
				if u <= rho {
					k = int(math.Floor(math.Log(u) / math.Log(rho)))
				}
			}
			for ; k > 0; k-- {
				w += s * rng.Float64()
			}
		}
		out := t + w + s + prop
		if started && out < lastOut+s {
			out = lastOut + s
		}
		started = true
		lastOut = out
		dst[i] = out
	}
	r.lastOut, r.started = lastOut, started
}

// NextBatch fills dst with exact-queue departures, advancing the Lindley
// recursion over the batched upstream slab. The exact queue serves many
// cross packets per padded packet, so the cross gaps are the hottest
// draw in the simulator: when the cross source batches, its gaps are
// pre-drawn a slab at a time into crossBuf (same draws, same order — the
// buffer only changes when the RNG is read, which nothing observes) and
// the Lindley loop consumes plain slice elements.
func (r *Router) NextBatch(dst []float64) {
	if len(dst) == 0 {
		return
	}
	if !r.started {
		r.started = true
		if r.cross != nil {
			r.nextCross = r.cross.Next()
		}
	}
	FillBatch(r.upstream, dst)
	crossBatch, _ := r.cross.(traffic.BatchSource)
	service, prop := r.service, r.prop
	free, nextCross := r.free, r.nextCross
	buf, idx := r.crossBuf, r.crossIdx
	for i, t := range dst {
		// Serve all cross packets arriving strictly before the padded
		// packet.
		for nextCross < t {
			if nextCross > free {
				free = nextCross
			}
			free += service
			if idx < len(buf) {
				nextCross += buf[idx]
				idx++
			} else if crossBatch != nil {
				if buf == nil {
					buf = make([]float64, slab.DefaultLen)
				}
				crossBatch.NextBatch(buf)
				nextCross += buf[0]
				idx = 1
			} else {
				nextCross += r.cross.Next()
			}
		}
		if t > free {
			free = t
		}
		free += service
		dst[i] = free + prop
	}
	r.free, r.nextCross = free, nextCross
	r.crossBuf, r.crossIdx = buf, idx
}

// NextBatch fills dst with quantized packet times.
func (q *Quantizer) NextBatch(dst []float64) {
	FillBatch(q.upstream, dst)
	res := q.res
	for i, t := range dst {
		dst[i] = math.Floor(t/res) * res
	}
}

// NextBatch fills dst with the next len(dst) captured packet times. The
// upstream is consumed in chunks sized to the captures still owed —
// survivors never exceed the chunk, so the upstream advances by exactly
// the packets the pull-driven tap would have consumed.
func (l *LossyTap) NextBatch(dst []float64) {
	if l.p == 0 {
		FillBatch(l.upstream, dst)
		return
	}
	out := 0
	for out < len(dst) {
		need := len(dst) - out
		if cap(l.buf) < need {
			l.buf = make([]float64, need)
		}
		chunk := l.buf[:need]
		FillBatch(l.upstream, chunk)
		for _, t := range chunk {
			if !l.rng.Bernoulli(l.p) {
				dst[out] = t
				out++
			} else {
				l.probe.Inc(obs.NetemDrop)
			}
		}
	}
}

// NextBatch fills dst with the next len(dst) inter-arrival times,
// differencing the upstream batch in place.
func (d *Differ) NextBatch(dst []float64) {
	if len(dst) == 0 {
		return
	}
	if !d.started {
		d.started = true
		d.prev = d.src.Next()
	}
	FillBatch(d.src, dst)
	prev := d.prev
	for i, t := range dst {
		dst[i] = t - prev
		prev = t
	}
	d.prev = prev
	d.count += uint64(len(dst))
}

// skipBatched discards n PIATs through the batched path.
func (d *Differ) skipBatched(n int) {
	buf := make([]float64, min(n, slab.DefaultLen))
	for n > 0 {
		k := min(len(buf), n)
		d.NextBatch(buf[:k])
		n -= k
	}
}

var (
	_ BatchStream = (*FastRouter)(nil)
	_ BatchStream = (*Router)(nil)
	_ BatchStream = (*Quantizer)(nil)
	_ BatchStream = (*LossyTap)(nil)
	_ BatchStream = (*Differ)(nil)
	_ BatchStream = (*Impairer)(nil)
)
