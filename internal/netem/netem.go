// Package netem models the unprotected network between the sender and
// receiver gateways: store-and-forward routers whose queues are shared
// with crossover traffic (the source of δ_net in the paper's PIAT
// decomposition, eq. 8), multi-hop paths, and adversary tap imperfections.
//
// Two router implementations are provided:
//
//   - Router: an exact FIFO single-server queue fed by the padded stream
//     plus a crossover arrival process, advanced with the Lindley
//     recursion. This is the ground truth.
//   - FastRouter: per-packet waiting times sampled i.i.d. from the exact
//     stationary M/D/1 waiting-time distribution via the
//     Pollaczek-Khinchine geometric ladder representation. Valid because
//     padded packets are spaced ~10 ms apart, far longer than a busy
//     period at the utilizations studied, so consecutive padded packets
//     see essentially independent queue states. Used for the large
//     parameter sweeps; equivalence with Router is enforced by tests.
//
// Determinism contract: every element draws from the explicit
// *xrand.Rand it was built with, in packet order, so a path is a pure
// function of (upstream stream, rngs). Differ adapts an absolute-time
// stream to the PIATs the adversary consumes while carrying the session
// clock (Now) and warm-up discard (Skip) across windows. Allocation
// discipline: all elements are streaming with O(1) state — no packet
// buffers, nothing allocated per packet.
package netem

import (
	"errors"
	"math"

	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// TimeStream is a monotone sequence of absolute event times in seconds.
// The gateway's padded departure process and every network element's
// output implement it.
type TimeStream interface {
	Next() float64
}

// ServiceTime returns the transmission time of a packet of size
// packetBytes on a link of capacityBps bits per second.
func ServiceTime(capacityBps float64, packetBytes int) float64 {
	return float64(packetBytes*8) / capacityBps
}

// MD1WaitMean returns the mean stationary M/D/1 waiting time at
// utilization rho and deterministic service time s: ρs / (2(1−ρ)).
func MD1WaitMean(rho, s float64) float64 {
	return rho * s / (2 * (1 - rho))
}

// MD1WaitVar returns the stationary M/D/1 waiting-time variance at
// utilization rho and service s, from the ladder representation:
// (ρ/(1−ρ))·s²/12 + (ρ/(1−ρ)²)·s²/4.
func MD1WaitVar(rho, s float64) float64 {
	q := 1 - rho
	return rho/q*s*s/12 + rho/(q*q)*s*s/4
}

// Util gives the crossover-traffic utilization of a router's outgoing
// link at absolute time t (seconds since the run began). It is an
// interface rather than a func type so the batched router loop can
// recognize the two concrete profiles the simulator uses — constant and
// diurnal — and bound a whole slab's utilization instead of evaluating
// it per packet; any other implementation (including a plain UtilFunc
// closure) works through the generic path.
type Util interface {
	At(t float64) float64
}

// UtilFunc adapts an arbitrary function to the Util interface.
type UtilFunc func(t float64) float64

// At returns f(t).
func (f UtilFunc) At(t float64) float64 { return f(t) }

// constUtil is the flat profile, recognized by the batched router loop.
type constUtil float64

// At returns the constant utilization.
func (c constUtil) At(float64) float64 { return float64(c) }

// ConstUtil returns a Util that is flat at u.
func ConstUtil(u float64) Util { return constUtil(u) }

// diurnalUtil anchors a traffic.Diurnal profile to a run's start hour,
// recognized by the batched router loop.
type diurnalUtil struct {
	d         traffic.Diurnal
	startHour float64
}

// At returns the profile's utilization at absolute run time t.
func (u diurnalUtil) At(t float64) float64 { return u.d.At(u.startHour + t/3600) }

// DiurnalUtil adapts a traffic.Diurnal profile: simulation time zero is
// startHour o'clock. A flat profile (Peak == Trough) collapses to the
// constant Util: Diurnal.At returns exactly Trough for it at every hour,
// so the substitution is bit-identical and lets the batched router loop
// bound its slabs without a scan.
func DiurnalUtil(d traffic.Diurnal, startHour float64) Util {
	if d.Peak == d.Trough {
		return constUtil(d.Trough)
	}
	return diurnalUtil{d: d, startHour: startHour}
}

// maxRho caps utilization for the stationary sampler; above it the
// M/D/1 queue is so close to saturation that stationary sampling is
// meaningless for a 10 ms-spaced probe stream.
const maxRho = 0.95

// FastRouter transforms an upstream padded stream by adding an i.i.d.
// stationary M/D/1 waiting time, the deterministic service time, and a
// constant propagation delay, while preserving FIFO order.
type FastRouter struct {
	upstream TimeStream
	service  float64
	util     Util
	prop     float64
	rng      *xrand.Rand
	lastOut  float64
	started  bool
}

// NewFastRouter creates a sampled router. service must be positive, util
// non-nil, prop non-negative.
func NewFastRouter(upstream TimeStream, service float64, util Util, prop float64, rng *xrand.Rand) (*FastRouter, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(service > 0) {
		return nil, errors.New("netem: service time must be positive")
	}
	if util == nil {
		return nil, errors.New("netem: nil utilization function")
	}
	if prop < 0 {
		return nil, errors.New("netem: negative propagation delay")
	}
	if rng == nil {
		return nil, errors.New("netem: nil rng")
	}
	return &FastRouter{upstream: upstream, service: service, util: util, prop: prop, rng: rng}, nil
}

// sampleMD1Wait draws from the stationary M/D/1 waiting-time distribution
// via the Pollaczek-Khinchine representation: a Geometric(ρ) number of
// i.i.d. Uniform(0, s) ladder heights.
func sampleMD1Wait(rho, s float64, rng *xrand.Rand) float64 {
	if rho <= 0 {
		return 0
	}
	if rho > maxRho {
		rho = maxRho
	}
	k := rng.Geometric(rho)
	var w float64
	for i := 0; i < k; i++ {
		w += s * rng.Float64()
	}
	return w
}

// Next returns the departure time of the next padded packet from this
// router. Outputs never reorder: a packet leaves no earlier than one
// service time after its predecessor.
func (r *FastRouter) Next() float64 {
	t := r.upstream.Next()
	rho := r.util.At(t)
	if rho < 0 {
		rho = 0
	}
	out := t + sampleMD1Wait(rho, r.service, r.rng) + r.service + r.prop
	if r.started && out < r.lastOut+r.service {
		out = r.lastOut + r.service
	}
	r.started = true
	r.lastOut = out
	return out
}

// Router is the exact FIFO single-server queue: the padded stream and a
// crossover arrival process share one output link; every packet takes one
// deterministic service time. Departures follow the Lindley recursion.
type Router struct {
	upstream  TimeStream
	cross     traffic.Source
	service   float64
	prop      float64
	free      float64 // time the server becomes free
	nextCross float64
	started   bool
	// crossBuf[crossIdx:] holds cross-arrival gaps pre-drawn by the
	// batched path (one bulk NextBatch on the cross source instead of a
	// draw per cross packet). The gaps are consumed in draw order by
	// both Next and NextBatch, so the output stream is bit-identical to
	// the unbuffered recursion; only the cross RNG's read-ahead differs,
	// which nothing observes (routers are not checkpointable).
	crossBuf []float64
	crossIdx int
}

// NewRouter creates an exact router. cross may be nil for a dedicated
// (zero cross traffic) link.
func NewRouter(upstream TimeStream, cross traffic.Source, service, prop float64) (*Router, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(service > 0) {
		return nil, errors.New("netem: service time must be positive")
	}
	if prop < 0 {
		return nil, errors.New("netem: negative propagation delay")
	}
	return &Router{upstream: upstream, cross: cross, service: service, prop: prop, nextCross: math.Inf(1)}, nil
}

// Next returns the departure time of the next padded packet, processing
// every crossover packet that arrived before it in FIFO order.
func (r *Router) Next() float64 {
	if !r.started {
		r.started = true
		if r.cross != nil {
			r.nextCross = r.cross.Next()
		}
	}
	t := r.upstream.Next()
	// Serve all cross packets arriving strictly before the padded packet.
	for r.nextCross < t {
		if r.nextCross > r.free {
			r.free = r.nextCross
		}
		r.free += r.service
		r.nextCross += r.nextCrossGap()
	}
	if t > r.free {
		r.free = t
	}
	r.free += r.service
	return r.free + r.prop
}

// nextCrossGap returns the next cross-arrival gap: a pre-drawn one if
// the batched path left any buffered, a fresh draw otherwise.
func (r *Router) nextCrossGap() float64 {
	if r.crossIdx < len(r.crossBuf) {
		g := r.crossBuf[r.crossIdx]
		r.crossIdx++
		return g
	}
	return r.cross.Next()
}

// Hop describes one router on a path.
type Hop struct {
	// Service is the per-packet transmission time on the outgoing link.
	Service float64
	// Util is the crossover utilization profile of the outgoing link.
	Util Util
	// Prop is the constant propagation delay to the next hop.
	Prop float64
}

// NewPath chains FastRouters over the given hops, splitting independent
// RNG streams off rng for each hop. An empty hop list returns upstream
// unchanged.
func NewPath(upstream TimeStream, hops []Hop, rng *xrand.Rand) (TimeStream, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	s := upstream
	for _, h := range hops {
		if rng == nil {
			return nil, errors.New("netem: nil rng with non-empty path")
		}
		fr, err := NewFastRouter(s, h.Service, h.Util, h.Prop, rng.Split())
		if err != nil {
			return nil, errors.Join(errors.New("netem: bad hop"), err)
		}
		s = fr
	}
	return s, nil
}

// UniformHops builds n identical hops.
func UniformHops(n int, service float64, util Util, prop float64) []Hop {
	hops := make([]Hop, n)
	for i := range hops {
		hops[i] = Hop{Service: service, Util: util, Prop: prop}
	}
	return hops
}

// Differ converts a TimeStream into its inter-arrival (PIAT) sequence.
// A Differ is the session-facing face of the network path: it carries the
// absolute stream clock across consecutive observation windows, so one
// Differ consumed incrementally yields the continuous padded timeline the
// paper's adversary taps (as opposed to rebuilding the chain per window).
type Differ struct {
	src     TimeStream
	prev    float64
	count   uint64
	started bool
	probe   *obs.Shard
}

// NewDiffer wraps src.
func NewDiffer(src TimeStream) *Differ { return &Differ{src: src} }

// SetProbe attaches the observation chain's telemetry shard to the
// Differ, making it the chain's flush point: the Differ is the single
// element every chain ends in, so batched consumers can drain the whole
// chain's counters through it (FlushObs) at slab boundaries.
func (d *Differ) SetProbe(s *obs.Shard) { d.probe = s }

// FlushObs drains the chain's telemetry shard into the global
// collector; a no-op when no probe is attached. Implements obs.Flusher.
func (d *Differ) FlushObs() { d.probe.Flush() }

// Next returns the next inter-arrival time.
func (d *Differ) Next() float64 {
	if !d.started {
		d.started = true
		d.prev = d.src.Next()
	}
	t := d.src.Next()
	x := t - d.prev
	d.prev = t
	d.count++
	return x
}

// Now returns the absolute stream time of the most recently observed
// packet (0 before the first Next call). Sessions use it to convert
// windows-to-decision into stream seconds.
func (d *Differ) Now() float64 { return d.prev }

// Observed returns how many PIATs have been consumed so far, warm-up
// included.
func (d *Differ) Observed() uint64 { return d.count }

// Skip consumes and discards n PIATs: the session warm-up, which runs the
// whole upstream chain (payload arrivals, gateway queue and timer,
// network queues) past its transient while the adversary is not yet
// watching. The stream clock still advances.
func (d *Differ) Skip(n int) {
	if n <= 0 {
		return
	}
	if _, ok := d.src.(BatchStream); ok {
		d.skipBatched(n)
		return
	}
	for i := 0; i < n; i++ {
		d.Next()
	}
}

// PIATs collects n inter-arrival times.
func (d *Differ) PIATs(n int) []float64 {
	out := make([]float64, n)
	d.NextBatch(out)
	return out
}

// LossyTap models an adversary capture that misses packets independently
// with probability p: from the adversary's viewpoint, the PIATs around a
// lost packet merge into one longer interval.
type LossyTap struct {
	upstream TimeStream
	p        float64
	rng      *xrand.Rand
	buf      []float64 // reusable upstream chunk for the batched path
	probe    *obs.Shard
}

// SetProbe attaches a telemetry shard; missed captures count as
// NetemDrop.
func (l *LossyTap) SetProbe(s *obs.Shard) { l.probe = s }

// NewLossyTap creates a lossy tap with loss probability 0 <= p < 1.
func NewLossyTap(upstream TimeStream, p float64, rng *xrand.Rand) (*LossyTap, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if p < 0 || p >= 1 {
		return nil, errors.New("netem: loss probability must be in [0,1)")
	}
	if p > 0 && rng == nil {
		return nil, errors.New("netem: nil rng with non-zero loss")
	}
	return &LossyTap{upstream: upstream, p: p, rng: rng}, nil
}

// Next returns the next captured packet time, skipping lost packets.
func (l *LossyTap) Next() float64 {
	for {
		t := l.upstream.Next()
		if l.p == 0 || !l.rng.Bernoulli(l.p) {
			return t
		}
		l.probe.Inc(obs.NetemDrop)
	}
}

// Quantizer models the capture hardware's finite timestamp resolution
// (e.g. a network analyzer clock): times are floored to multiples of the
// resolution. Output is non-decreasing but may repeat.
type Quantizer struct {
	upstream TimeStream
	res      float64
}

// NewQuantizer creates a quantizing tap with resolution res > 0.
func NewQuantizer(upstream TimeStream, res float64) (*Quantizer, error) {
	if upstream == nil {
		return nil, errors.New("netem: nil upstream")
	}
	if !(res > 0) {
		return nil, errors.New("netem: resolution must be positive")
	}
	return &Quantizer{upstream: upstream, res: res}, nil
}

// Next returns the quantized next packet time.
func (q *Quantizer) Next() float64 {
	return math.Floor(q.upstream.Next()/q.res) * q.res
}

// SliceStream replays a fixed schedule of times; it is the test harness's
// way to feed known departure processes through network elements. Next
// panics past the end of the slice.
type SliceStream struct {
	times []float64
	i     int
}

// NewSliceStream wraps times (not copied).
func NewSliceStream(times []float64) *SliceStream { return &SliceStream{times: times} }

// Next returns the next scheduled time.
func (s *SliceStream) Next() float64 {
	t := s.times[s.i]
	s.i++
	return t
}
