package netem

import (
	"math"
	"os"
	"strconv"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// mkChain builds one netem element (over a Poisson-fed base stream) from
// a seed; each case's factory is called twice so the pull-driven and
// batched instances draw from identically-seeded generators.
func netemBatchCases(t *testing.T) map[string]func(seed uint64) BatchStream {
	t.Helper()
	base := func(master *xrand.Rand) TimeStream {
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		// An absolute-time stream: cumulative Poisson arrivals.
		return &cumStream{src: p}
	}
	fast := func(util Util) func(seed uint64) BatchStream {
		return func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			r, err := NewFastRouter(up, 1e-4, util, 1e-3, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	impair := func(im *Impairment) func(seed uint64) BatchStream {
		return func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			p, err := NewImpairer(up, im, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return map[string]func(seed uint64) BatchStream{
		"fastrouter-idle":     fast(ConstUtil(0)),
		"fastrouter-const":    fast(ConstUtil(0.6)),
		"fastrouter-overload": fast(ConstUtil(1.4)),
		"fastrouter-diurnal":  fast(DiurnalUtil(traffic.Diurnal{Trough: 0.2, Peak: 0.7, TroughHour: 3}, 9)),
		"fastrouter-func": fast(UtilFunc(func(t float64) float64 {
			return 0.3 + 0.2*float64(int(t)%2)
		})),
		"router-exact": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			cross, err := traffic.NewPoisson(5000, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRouter(up, cross, 1e-4, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"router-cbr-cross": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			cross, err := traffic.NewCBR(5000, 1e-5, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRouter(up, cross, 1e-4, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"lossytap": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			l, err := NewLossyTap(up, 0.07, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"lossytap-lossless": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			l, err := NewLossyTap(up, 0, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"quantizer": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			q, err := NewQuantizer(up, 1e-5)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"impair-loss":    impair(&Impairment{LossProb: 0.1}),
		"impair-dup":     impair(&Impairment{DupProb: 0.15}),
		"impair-reorder": impair(&Impairment{ReorderProb: 0.1, ReorderDepth: 3}),
		"impair-ge": impair(&Impairment{
			GE: &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0.001, LossBad: 0.4},
		}),
		"impair-all": impair(&Impairment{
			LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.08, ReorderDepth: 4,
			GE: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0, LossBad: 0.5},
		}),
		"differ-chain": func(seed uint64) BatchStream {
			master := xrand.New(seed)
			up := base(master)
			r, err := NewFastRouter(up, 1e-4, ConstUtil(0.5), 1e-3, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			return NewDiffer(r)
		},
	}
}

// cumStream turns a gap source into an absolute-time stream.
type cumStream struct {
	src traffic.Source
	now float64
}

func (c *cumStream) Next() float64 {
	c.now += c.src.Next()
	return c.now
}

func (c *cumStream) NextBatch(dst []float64) {
	if b, ok := c.src.(traffic.BatchSource); ok {
		b.NextBatch(dst)
	} else {
		for i := range dst {
			dst[i] = c.src.Next()
		}
	}
	now := c.now
	for i := range dst {
		now += dst[i]
		dst[i] = now
	}
	c.now = now
}

// TestNetemBatchMatchesPull checks every netem element's NextBatch
// against its per-packet Next across awkward chunk sizes: bit-identical
// output streams.
func TestNetemBatchMatchesPull(t *testing.T) {
	const total = 6000
	chunks := []int{1, 3, 17, 255, 4096}
	for name, mk := range netemBatchCases(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{2, 23} {
				pull := mk(seed)
				batch := mk(seed)
				want := make([]float64, total)
				for i := range want {
					want[i] = pull.Next()
				}
				got := make([]float64, 0, total)
				for ci := 0; len(got) < total; ci++ {
					k := min(chunks[ci%len(chunks)], total-len(got))
					buf := make([]float64, k)
					batch.NextBatch(buf)
					got = append(got, buf...)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d event %d: batch %v != pull %v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// propertySeedEnv overrides the fixed seed of the FastRouter property
// test, so a failure found under another seed can be replayed.
const propertySeedEnv = "NETEM_PROPERTY_SEED"

// randomRouterPath builds a path of 1 to 15 FastRouter hops over a
// Poisson-fed stream — each hop constant or diurnal, utilizations from
// idle to 0.99 (above maxRho), start hours often just before a cosine
// turning point or midnight — optionally behind a reordering Impairer
// so hop inputs arrive out of order. gen chooses the shape; seed seeds
// the packet draws, so two calls with equal arguments build identical
// paths.
func randomRouterPath(t *testing.T, gen *xrand.Rand, seed uint64) (TimeStream, string) {
	t.Helper()
	master := xrand.New(seed)
	p, err := traffic.NewPoisson(100, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	var up TimeStream = &cumStream{src: p}
	desc := ""
	if gen.Bernoulli(0.25) {
		up, err = NewImpairer(up, &Impairment{ReorderProb: 0.2, ReorderDepth: 1 + gen.Intn(6)}, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		desc += "reorder "
	}
	hops := make([]Hop, 1+gen.Intn(15))
	for i := range hops {
		var util Util
		if gen.Bernoulli(0.3) {
			rho := []float64{0, 0.05, gen.Float64() * 0.99, 0.95, 0.99}[gen.Intn(5)]
			util = ConstUtil(rho)
			desc += "c" + strconv.FormatFloat(rho, 'g', 3, 64) + " "
		} else {
			d := traffic.Diurnal{Trough: gen.Float64() * 0.3, TroughHour: gen.Float64() * 24}
			d.Peak = d.Trough + gen.Float64()*(0.99-d.Trough)
			if gen.Bernoulli(0.1) {
				d.Trough = 0
			}
			// 4096 packets at 100/s span ~41 s ≈ 0.011 h; starting up
			// to 0.02 h before a boundary puts it inside the first few
			// slabs.
			before := gen.Float64() * 0.02
			var start float64
			switch gen.Intn(5) {
			case 0:
				start = d.TroughHour - before
			case 1:
				start = d.TroughHour + 12 - before
			case 2:
				start = d.TroughHour - 12 - before
			case 3:
				start = 24 - before
			default:
				start = gen.Float64() * 24
			}
			start = math.Mod(start+24, 24)
			util = DiurnalUtil(d, start)
			desc += "d[" + strconv.FormatFloat(d.Trough, 'g', 3, 64) + "," +
				strconv.FormatFloat(d.Peak, 'g', 3, 64) + "]@" + strconv.FormatFloat(start, 'g', 6, 64) + " "
		}
		hops[i] = Hop{Service: 1e-4, Util: util, Prop: 1e-3}
	}
	path, err := NewPath(up, hops, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	return path, desc
}

// TestFastRouterBatchMatchesPullProperty checks, over random hop chains,
// that the slab-bounded ladder resolver emits the bit-identical stream
// of the per-packet pull path, across slab lengths from 1 to 4096.
func TestFastRouterBatchMatchesPullProperty(t *testing.T) {
	seed := uint64(14)
	if s := os.Getenv(propertySeedEnv); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", propertySeedEnv, s, err)
		}
		seed = v
	}
	t.Logf("seed %d (override with %s)", seed, propertySeedEnv)
	trials, total := 60, 9000
	if testing.Short() {
		trials = 15
	}
	gen := xrand.New(seed)
	want := make([]float64, total)
	got := make([]float64, total)
	for trial := 0; trial < trials; trial++ {
		shape := gen.Uint64()
		pathSeed := gen.Uint64()
		pull, desc := randomRouterPath(t, xrand.New(shape), pathSeed)
		batch, _ := randomRouterPath(t, xrand.New(shape), pathSeed)
		for i := range want {
			want[i] = pull.Next()
		}
		for n := 0; n < total; {
			k := min(total-n, 1+gen.Intn([]int{4, 64, 4096}[gen.Intn(3)]))
			FillBatch(batch, got[n:n+k])
			n += k
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s) packet %d: batch %v != pull %v", trial, desc, i, got[i], want[i])
			}
		}
	}
}

// TestLadderThresholds probes the resolver at every threshold
// lo^j·(1−δ) and hi^(j+1)·(1+δ), at its float64 neighbours, and at
// j = ladderJ: wherever count decides K, K must equal the exact
// floor(log u / log ρ) at both ends of the ρ bounds, and draws at or
// beyond the last threshold must be left undecided.
func TestLadderThresholds(t *testing.T) {
	// Constant profiles, diurnal slab-width bounds, and bounds too wide
	// for any count to be decided.
	bounds := [][2]float64{
		{0.6, 0.6}, {0.95, 0.95}, {0.05, 0.05}, {1e-3, 1e-3},
		{0.2, 0.2000001}, {0.3, 0.3004}, {0.9496, 0.95},
		{0.05, 0.3}, {0.9, 0.95},
	}
	for _, b := range bounds {
		lo, hi := b[0], b[1]
		l := newLadder(lo, hi)
		var probes []float64
		for j := 1; j < ladderJ; j++ {
			for _, th := range []float64{l.up[j], l.dn[j]} {
				probes = append(probes, math.Nextafter(th, 0), th, math.Nextafter(th, 1))
			}
		}
		probes = append(probes, hi, math.Nextafter(hi, 0))
		decided := 0
		for _, u := range probes {
			k := l.count(u)
			if k < 0 {
				continue
			}
			decided++
			for _, rho := range []float64{lo, hi} {
				if exact := math.Floor(math.Log(u) / math.Log(rho)); float64(k) != exact {
					t.Errorf("bounds [%g, %g] u=%v: count %d, exact at ρ=%g is %v", lo, hi, u, k, rho, exact)
				}
			}
		}
		if decided == 0 && hi*hi < lo {
			t.Errorf("bounds [%g, %g]: no probe decided", lo, hi)
		}
		last := l.dn[ladderJ-1]
		for _, u := range []float64{math.Nextafter(last, 0), last, last / 2} {
			if k := l.count(u); k != -1 {
				t.Errorf("bounds [%g, %g] u=%v ≤ hi^J(1+δ): count %d, want -1", lo, hi, u, k)
			}
		}
	}
}

// TestRhoBoundsCoverSlab checks the invariant the resolver rests on:
// whenever rhoBounds accepts a diurnal slab, every packet's ρ lies in
// [lo, hi] — for slabs in any order, next to turning points and
// midnight, and on later days of a multi-day run.
func TestRhoBoundsCoverSlab(t *testing.T) {
	gen := xrand.New(5)
	dst := make([]float64, 4096)
	var accepted, rejected int
	for trial := 0; trial < 400; trial++ {
		// A trough or peak at midnight makes wrapping past it unsafe.
		d := traffic.Diurnal{Trough: 0.01 + gen.Float64()*0.3, TroughHour: []float64{0, 12, gen.Float64() * 24}[gen.Intn(3)]}
		d.Peak = d.Trough + gen.Float64()*(0.95-d.Trough)
		util := DiurnalUtil(d, gen.Float64()*24)
		r, err := NewFastRouter(&cumStream{}, 1e-4, util, 0, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		// Half the time, land the slab start between 1e-8 h and 0.02 h
		// before a boundary, where ρ is flat enough for rounding to
		// matter.
		du := util.(diurnalUtil)
		day := float64(gen.Intn(3)) * 24
		boundary := []float64{d.TroughHour, d.TroughHour + 12, d.TroughHour - 12, 24}[gen.Intn(4)]
		hour := day + boundary - 0.02*math.Pow(10, -6*gen.Float64())
		if gen.Bernoulli(0.5) {
			hour = day + gen.Float64()*24
		}
		t0 := (hour - du.startHour) * 3600
		n := 1 + gen.Intn(len(dst))
		for i := range dst[:n] {
			dst[i] = t0 + float64(i)*0.01
		}
		for i := 1; i < n; i++ {
			if gen.Bernoulli(0.2) {
				j := max(0, i-1-gen.Intn(6))
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
		lo, hi, ok := r.rhoBounds(dst[:n])
		if !ok {
			rejected++
			continue
		}
		accepted++
		for _, tt := range dst[:n] {
			if rho := util.At(tt); !(lo <= rho && rho <= hi) {
				t.Fatalf("trial %d: ρ(%v) = %v outside slab bounds [%v, %v]", trial, tt, rho, lo, hi)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d, rejected %d slabs: want both paths exercised", accepted, rejected)
	}
}

// TestDifferSkipAndPIATsBatched checks that the batched Skip and PIATs
// paths leave the Differ in the bit-identical state as per-packet pulls.
func TestDifferSkipAndPIATsBatched(t *testing.T) {
	mk := func(seed uint64) *Differ {
		master := xrand.New(seed)
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewFastRouter(&cumStream{src: p}, 1e-4, ConstUtil(0.5), 1e-3, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		return NewDiffer(r)
	}
	pull, batch := mk(7), mk(7)
	for i := 0; i < 5000; i++ {
		pull.Next()
	}
	batch.Skip(5000)
	if pull.Now() != batch.Now() || pull.Observed() != batch.Observed() {
		t.Fatalf("after skip: pull (%v, %d) != batch (%v, %d)",
			pull.Now(), pull.Observed(), batch.Now(), batch.Observed())
	}
	want := make([]float64, 700)
	for i := range want {
		want[i] = pull.Next()
	}
	got := batch.PIATs(700)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PIAT %d: batch %v != pull %v", i, got[i], want[i])
		}
	}
}

// benchPullBatch reports both traversal modes of one element, one packet
// per iteration either way, so ns/op compares directly: the pull mode
// calls Next per packet, the batch mode amortizes a whole slab. The
// batch mode rounds b.N up to whole slabs, so it also reports ns/pkt,
// which stays per packet even at -benchtime 1x.
func benchPullBatch(b *testing.B, mk func() BatchStream) {
	b.Run("pull", func(b *testing.B) {
		s := mk()
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += s.Next()
		}
		_ = sink
	})
	b.Run("batch", func(b *testing.B) {
		s := mk()
		buf := make([]float64, 4096)
		s.NextBatch(buf) // warm internal buffers
		b.ReportAllocs()
		b.ResetTimer()
		pkts := 0
		for ; pkts < b.N; pkts += len(buf) {
			s.NextBatch(buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	})
}

// BenchmarkPathHop measures the FastRouter hot path — the inner loop of
// every multi-hop experiment — in both traversal modes, at the constant
// and diurnal profiles.
func BenchmarkPathHop(b *testing.B) {
	mk := func(util Util) func() BatchStream {
		return func() BatchStream {
			master := xrand.New(1)
			p, err := traffic.NewPoisson(100, master.Split())
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewFastRouter(&cumStream{src: p}, 1e-4, util, 1e-3, master.Split())
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
	}
	b.Run("const", func(b *testing.B) { benchPullBatch(b, mk(ConstUtil(0.6))) })
	b.Run("diurnal", func(b *testing.B) {
		benchPullBatch(b, mk(DiurnalUtil(traffic.Diurnal{Trough: 0.2, Peak: 0.7, TroughHour: 3}, 9)))
	})
}

// BenchmarkExactHop measures the exact FIFO router with Poisson cross
// traffic at 25 cross packets per padded packet (the validate-exactnet
// regime) in both traversal modes.
func BenchmarkExactHop(b *testing.B) {
	benchPullBatch(b, func() BatchStream {
		master := xrand.New(1)
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		cross, err := traffic.NewPoisson(2500, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRouter(&cumStream{src: p}, cross, 1e-4, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		return r
	})
}

// BenchmarkImpairSlab measures the Impairer with every knob on in both
// traversal modes.
func BenchmarkImpairSlab(b *testing.B) {
	benchPullBatch(b, func() BatchStream {
		master := xrand.New(1)
		p, err := traffic.NewPoisson(100, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		im := &Impairment{
			LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.08, ReorderDepth: 4,
			GE: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossGood: 0, LossBad: 0.5},
		}
		imp, err := NewImpairer(&cumStream{src: p}, im, master.Split())
		if err != nil {
			b.Fatal(err)
		}
		return imp
	})
}

// TestNetemBatchAllocFree pins each batched element at zero allocations
// per slab in steady state (internal chunk buffers are warmed by one
// prior slab).
func TestNetemBatchAllocFree(t *testing.T) {
	buf := make([]float64, 4096)
	for name, mk := range netemBatchCases(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(1)
			s.NextBatch(buf)
			if n := testing.AllocsPerRun(10, func() { s.NextBatch(buf) }); n != 0 {
				t.Fatalf("NextBatch allocates %v times per slab; want 0", n)
			}
		})
	}
}
