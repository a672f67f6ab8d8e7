package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"linkpad/internal/adversary"
	"linkpad/internal/bayes"
	"linkpad/internal/core"
	"linkpad/internal/netem"
	"linkpad/internal/obs"
	"linkpad/internal/population"
	"linkpad/internal/xrand"
)

// The traced run rebuilds each workload from the layers' public
// functions and wraps every call into a layer in a span. Layers are
// named after the modules in internal/; "run" is the root span of one
// part, whose self time is the time no layer accounts for.
const (
	layerRun        = "run"
	layerCore       = "core"
	layerGateway    = "gateway"
	layerNetem      = "netem"
	layerAdversary  = "adversary"
	layerBayes      = "bayes"
	layerEngine     = "population.engine"
	layerMix        = "population.mix"
	layerDisclosure = "population.disclosure"
)

// spanLayers are the layers whose self time the traced run reports.
var spanLayers = []string{layerCore, layerGateway, layerNetem, layerAdversary, layerBayes,
	layerEngine, layerMix, layerDisclosure}

// timedStream forwards a chain element, timing each batched pull as a
// span and counting the events pulled. It forwards the chain's
// telemetry flush, so the adversary drains counters through it.
type timedStream struct {
	src    netem.BatchStream
	tr     *tracer
	layer  string
	op     string
	events *int64
}

func (s *timedStream) Next() float64 {
	*s.events++
	return s.src.Next()
}

func (s *timedStream) NextBatch(dst []float64) {
	id := s.tr.begin(s.layer, s.op)
	s.src.NextBatch(dst)
	s.tr.end(id)
	*s.events += int64(len(dst))
}

func (s *timedStream) FlushObs() {
	if f, ok := s.src.(obs.Flusher); ok {
		f.FlushObs()
	}
}

// composer runs workload parts from the layers' public functions and
// accumulates what the per-layer metrics divide by.
type composer struct {
	tr *tracer

	wall     float64                 // workload sections, s
	counters [obs.NumCounters]uint64 // obs deltas over the workload parts

	// Replica parts.
	gwEvents   int64 // packets pulled from gateways
	piats      int64 // PIATs pulled through the tap
	piatHops   int64 // PIATs × router hops they crossed
	chains     int64 // observation chains built
	classified int64 // windows scored by the classifiers

	// Disclosure parts.
	builds      int
	rounds      int
	engineRound float64   // threshold-mix replay time over the observed rounds, s
	ownRound    float64   // replay time of the part's own mix, s
	pool        bool      // some part uses a mix other than the threshold mix
	steps       []float64 // DisclosureRun.Step(1) durations, s
	snapSecs    float64
	snapBytes   int
	warmUsers   int
}

// section opens the workload section of one part: its root span, its
// obs counter deltas and its wall time. The returned func closes it.
func (c *composer) section(runID, label string) func() {
	c.tr.setRun(runID)
	before := obs.Snapshot()
	root := c.tr.begin(layerRun, label)
	t0 := time.Now()
	return func() {
		c.wall += time.Since(t0).Seconds()
		c.tr.end(root)
		c.countSince(before)
	}
}

// pass runs every part once and returns the results and the wall time
// of the workload sections, which leaves out the replays and snapshots
// only traced passes make. runID labels the workload's spans.
func (c *composer) pass(parts []part, runID string) ([]*core.Result, float64, error) {
	res := make([]*core.Result, len(parts))
	for i, p := range parts {
		sys, err := core.NewSystem(p.cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p.label, err)
		}
		switch sp := p.spec.(type) {
		case core.AttackSetSpec:
			res[i], err = c.attack(sys, p, sp, runID)
		case core.DisclosureSpec:
			res[i], err = c.disclosure(sys, p, sp, runID)
		default:
			err = fmt.Errorf("unsupported spec %T", p.spec)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return res, c.wall, nil
}

// countSince adds the obs counter deltas since before to c.counters.
func (c *composer) countSince(before [obs.NumCounters]uint64) {
	after := obs.Snapshot()
	for i := range after {
		c.counters[i] += after[i] - before[i]
	}
}

// windowStreamID is the stream replica of trial window w of a phase
// whose base stream ID is base, as the scenario layer assigns it.
func windowStreamID(base uint64, w int) uint64 { return base + (uint64(w)+1)<<32 }

// attack runs a replica-window attack part: per-class feature matrices
// for training and evaluation, one KDE classifier per feature, and the
// variance ratio unless the spec skips it.
func (c *composer) attack(sys *core.System, p part, sp core.AttackSetSpec, runID string) (*core.Result, error) {
	cfg := p.cfg
	if cfg.Mix != nil || cfg.ExactNetwork || cfg.PathImpair.Enabled() || cfg.TapImpair.Enabled() ||
		cfg.TapLossProb > 0 || cfg.TapResolution > 0 {
		return nil, errors.New("the traced composition covers timer gateways over fast router paths only")
	}
	hops := make([]netem.Hop, len(cfg.Hops))
	for i, h := range cfg.Hops {
		hops[i] = netem.Hop{
			Service: netem.ServiceTime(h.CapacityBps, h.PacketBytes),
			Util:    netem.DiurnalUtil(h.Util, cfg.StartHour),
			Prop:    h.PropDelay,
		}
	}
	defer c.section(runID, p.label)()

	chain := func(class int, stream uint64) (adversary.PIATSource, error) {
		id := c.tr.begin(layerCore, "chain")
		defer c.tr.end(id)
		gw, err := sys.Gateway(class, stream)
		if err != nil {
			return nil, err
		}
		sh := obs.NewShard()
		gw.SetProbe(sh)
		var up netem.TimeStream = &timedStream{src: gw, tr: c.tr, layer: layerGateway,
			op: "Gateway.NextBatch", events: &c.gwEvents}
		if len(hops) > 0 {
			rng := xrand.New(cfg.Seed ^ stream*0x9e3779b97f4a7c15 ^ uint64(class+1)<<56)
			if up, err = netem.NewPath(up, hops, rng); err != nil {
				return nil, err
			}
		}
		d := netem.NewDiffer(up)
		d.SetProbe(sh)
		c.chains++
		return &timedStream{src: d, tr: c.tr, layer: layerNetem,
			op: "Differ.NextBatch", events: &c.piats}, nil
	}
	// Every PIAT of the part crossed the same path.
	defer func(before int64) { c.piatHops += (c.piats - before) * int64(len(hops)) }(c.piats)
	factory := func(class int, base uint64) adversary.SourceFactory {
		return func(w int) (adversary.PIATSource, error) { return chain(class, windowStreamID(base, w)) }
	}

	a := sp.Attack
	trainBase, evalBase := a.TrainStreamID, a.EvalStreamID
	if trainBase == 0 {
		trainBase = 1
	}
	if evalBase == 0 {
		evalBase = 2
	}
	exts := make([]adversary.Extractor, len(sp.Features))
	for i, f := range sp.Features {
		exts[i] = adversary.Extractor{Feature: f, EntropyBinWidth: a.EntropyBinWidth}
	}
	labels := sys.Labels()
	matrix := func(class int, base uint64, windows int) ([][]float64, error) {
		id := c.tr.begin(layerAdversary, "FeatureMatrix")
		defer c.tr.end(id)
		return adversary.FeatureMatrix(factory(class, base), exts, windows, a.WindowSize, workers)
	}

	train := make([][][]float64, len(labels))
	for cl := range labels {
		mat, err := matrix(cl, trainBase, a.TrainWindows)
		if err != nil {
			return nil, err
		}
		train[cl] = mat
	}
	classifiers := make([]*bayes.Classifier, len(exts))
	for fi := range exts {
		perClass := make([][]float64, len(labels))
		for cl := range labels {
			perClass[cl] = train[cl][fi]
		}
		id := c.tr.begin(layerBayes, "TrainKDE")
		cls, err := bayes.TrainKDE(labels, perClass, nil)
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		classifiers[fi] = cls
	}

	cms := make([]*bayes.Confusion, len(exts))
	for fi := range cms {
		cms[fi] = bayes.NewConfusion(labels)
	}
	var preds []int
	for cl := range labels {
		mat, err := matrix(cl, evalBase, a.EvalWindows)
		if err != nil {
			return nil, err
		}
		for fi := range exts {
			id := c.tr.begin(layerBayes, "ClassifyBatch")
			preds = classifiers[fi].ClassifyBatch(mat[fi], preds)
			c.tr.end(id)
			c.classified += int64(len(preds))
			for _, pred := range preds {
				cms[fi].Add(cl, pred)
			}
		}
	}

	var r float64
	if !a.SkipEmpiricalR {
		lo, err := chain(0, evalBase+1000)
		if err != nil {
			return nil, err
		}
		hi, err := chain(1, evalBase+1000)
		if err != nil {
			return nil, err
		}
		id := c.tr.begin(layerAdversary, "EmpiricalR")
		r, err = adversary.EmpiricalR(lo, hi, empiricalRLen(a))
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	out := make([]*core.AttackResult, len(exts))
	for fi, f := range sp.Features {
		out[fi] = &core.AttackResult{Feature: f, WindowSize: a.WindowSize,
			DetectionRate: cms[fi].DetectionRate(), Confusion: cms[fi], EmpiricalR: r}
	}
	return &core.Result{AttackSet: out}, nil
}

// poolSeedSalt derives the pool mix's retention seed from the system
// seed when the spec leaves it zero.
const poolSeedSalt = 0x6d69782d706f6f6c

// disclosure runs a disclosure part one round at a time. Because the
// mix round happens inside DisclosureRun.Step, the part's engine and
// mix are first replayed on fresh engines built from the same seed —
// the same rounds, without the estimator — timing every round; the
// engine's share is the threshold-mix replay, the mix's is the own-mix
// replay minus that, and the disclosure layer keeps the rest of Step.
func (c *composer) disclosure(sys *core.System, p part, sp core.DisclosureSpec, runID string) (*core.Result, error) {
	cfg := sp.Disclosure
	cfg.Dummies = sp.Population.Dummies
	if cfg.Mix.Kind == population.MixPool && cfg.Mix.Seed == 0 {
		cfg.Mix.Seed = p.cfg.Seed ^ poolSeedSalt
	}
	cfg = cfg.WithDefaults(sp.Population.Users)
	cfg.Workers = workers

	var thr, own []float64
	if c.tr != nil {
		c.tr.setRun(runID + "/replay")
		var err error
		if thr, err = c.replay(sys, sp.Population, population.MixSpec{Kind: population.MixThreshold}, cfg, layerEngine); err != nil {
			return nil, err
		}
		own = thr
		if cfg.Mix.Kind != population.MixThreshold {
			c.pool = true
			if own, err = c.replay(sys, sp.Population, cfg.Mix, cfg, layerMix); err != nil {
				return nil, err
			}
		}
	}

	eng, run, err := c.disclose(sys, sp.Population, cfg, runID, p.label)
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		// The snapshot guards the resume path; it is no part of the
		// workload, so it runs outside the workload section.
		c.tr.setRun(runID + "/snapshot")
		t0 := time.Now()
		id := c.tr.begin(layerDisclosure, "Snapshot")
		st, err := run.Snapshot()
		var b []byte
		if err == nil {
			b, err = json.Marshal(st)
		}
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		c.snapSecs += time.Since(t0).Seconds()
		c.snapBytes += len(b)
		n := run.Observed()
		c.engineRound += sum(thr[:n])
		c.ownRound += sum(own[:n])
	}
	c.warmUsers += eng.WarmUsers()
	c.rounds += run.Observed()
	return &core.Result{Disclosure: run.Result()}, nil
}

// disclose is the workload section of a disclosure part: build the
// population, then observe it one round at a time.
func (c *composer) disclose(sys *core.System, pop core.PopulationSpec, cfg population.DisclosureConfig,
	runID, label string) (*population.Engine, *population.DisclosureRun, error) {
	defer c.section(runID, label)()
	id := c.tr.begin(layerEngine, "NewPopulation")
	eng, err := sys.NewPopulation(pop)
	c.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	c.builds++
	id = c.tr.begin(layerDisclosure, "StartDisclosure")
	run, err := eng.StartDisclosure(cfg)
	c.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	for !run.Done() {
		t0 := time.Now()
		id := c.tr.begin(layerDisclosure, "Step")
		_, err := run.Step(1)
		c.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		c.steps = append(c.steps, time.Since(t0).Seconds())
	}
	return eng, run, nil
}

// replay times cfg.MaxRounds rounds of the given mix on a fresh engine.
func (c *composer) replay(sys *core.System, pop core.PopulationSpec, mix population.MixSpec,
	cfg population.DisclosureConfig, layer string) ([]float64, error) {
	eng, err := sys.NewPopulation(pop)
	if err != nil {
		return nil, err
	}
	eng.SetWorkers(cfg.Workers)
	m, err := eng.NewMix(mix, cfg.Batch)
	if err != nil {
		return nil, err
	}
	var r population.Round
	op := "NextRound(" + mix.Kind.String() + ")"
	out := make([]float64, 0, cfg.MaxRounds)
	for range cfg.MaxRounds {
		t0 := time.Now()
		id := c.tr.begin(layer, op)
		err := m.NextRound(&r)
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics turns one traced pass into per-layer metrics. spans are
// the pass's workload spans. A metric whose layer the pass did not
// exercise is left out.
func (c *composer) layerMetrics(spans []span) (metrics, self map[string]float64) {
	self = selfTimes(spans)
	wall := wallTimes(spans)
	m := map[string]float64{}
	put := func(name string, num, den float64) {
		if den > 0 {
			m[name] = num / den
		}
	}
	cnt := func(k obs.Counter) float64 { return float64(c.counters[k]) }

	if c.piats > 0 {
		pkts := cnt(obs.GatewayPayload) + cnt(obs.GatewayDummy)
		put("gateway.ns_per_pkt", 1e9*self[layerGateway], float64(c.gwEvents))
		m["gateway.pkts"] = pkts
		put("gateway.payload_frac", cnt(obs.GatewayPayload), pkts)
		m["gateway.stalls"] = cnt(obs.GatewayStall)
		put("netem.ns_per_pkt", 1e9*self[layerNetem], float64(c.piats))
		put("netem.ns_per_pkt_hop", 1e9*self[layerNetem], float64(c.piatHops))
		put("core.chain_build_us", 1e6*self[layerCore], float64(c.chains))
		m["core.chains"] = float64(c.chains)
		put("adversary.ns_per_piat", 1e9*self[layerAdversary], float64(c.piats))
		m["adversary.windows"] = cnt(obs.AdvWindow)
		m["adversary.slabs"] = cnt(obs.AdvSlab)
		if t, ok := wall[layerAdversary+"/EmpiricalR"]; ok {
			m["adversary.empirical_r_ms"] = 1e3 * t
		}
		m["bayes.train_ms"] = 1e3 * self[layerBayes+"/TrainKDE"]
		put("bayes.classify_ns_per_window", 1e9*self[layerBayes+"/ClassifyBatch"], float64(c.classified))
	}

	if c.rounds > 0 {
		// Move the replayed round costs out of Step into their layers.
		self[layerEngine] += c.engineRound
		self[layerDisclosure] -= c.ownRound
		if c.pool {
			self[layerMix] += c.ownRound - c.engineRound
			put("population.mix.us_per_round", 1e6*(c.ownRound-c.engineRound), float64(c.rounds))
		}
		rounds := float64(c.rounds)
		put("population.engine.build_ms", 1e3*wall[layerEngine+"/NewPopulation"], float64(c.builds))
		m["population.engine.warm_users"] = float64(c.warmUsers)
		put("population.engine.us_per_round", 1e6*c.engineRound, rounds)
		m["population.engine.messages"] = cnt(obs.PopulationMessage)
		m["population.engine.active_users"] = cnt(obs.PopulationActiveUser)
		put("population.disclosure.us_per_round", 1e6*(sum(c.steps)-c.ownRound), rounds)
		m["population.disclosure.step_us_p50"] = 1e6 * median(c.steps)
		pct, v := tail(c.steps)
		m["population.disclosure.step_us_p99"] = 1e6 * v
		m["population.disclosure.step_tail_pct"] = pct
		m["population.disclosure.rounds"] = rounds
		m["population.disclosure.snapshot_ms"] = 1e3 * c.snapSecs
		m["population.disclosure.snapshot_bytes"] = float64(c.snapBytes)
	}

	for _, l := range spanLayers {
		if l == layerMix && !c.pool {
			continue
		}
		if self[l] != 0 {
			m[l+".self_ms"] = 1e3 * self[l]
		}
	}
	m["trace.unattributed_ms"] = 1e3 * self[layerRun]
	return m, self
}
