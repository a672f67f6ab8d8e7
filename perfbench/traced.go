package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"linkpad/internal/core"
	"linkpad/internal/obs"
	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// keptPasses is how many traced passes keep their spans for the span
// file; later passes only contribute metrics.
const keptPasses = 2

// probeParts is the fixed small composition whose layer metrics fill in
// for layers a workload does not exercise, so every traced run reports
// every layer: one WAN hour (traffic, gateway, netem with hops, core,
// adversary, bayes) and the ML/pool/adaptive cell (engine, pool mix,
// disclosure), both at smokeBudget.
func probeParts(seed uint64) []part {
	return append(replicaWAN(seed, smokeBudget)[:1], sdaMLAdaptive(seed, smokeBudget)[0])
}

// tracedPass runs one traced pass with telemetry on and returns its
// results, wall time and per-layer metrics.
func tracedPass(tr *tracer, parts []part, runID string) ([]*core.Result, float64, map[string]float64, map[string]float64, error) {
	c := &composer{tr: tr}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, wall, err := c.pass(parts, runID)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	metrics, self := c.layerMetrics(tr.runSpans(runID))
	metrics["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	metrics["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if c.piats > 0 {
		ns, err := arrivalCost(parts, c.counters[obs.TrafficPayload])
		if err != nil {
			return nil, 0, nil, nil, err
		}
		metrics["traffic.ns_per_arrival"] = ns
	}
	return res, wall, metrics, self, nil
}

// arrivalCost times traffic.Source.NextBatch at the payload rates of the
// first replica part, drawing as many arrivals as the pass admitted
// (at least 1e5), and returns ns per arrival.
func arrivalCost(parts []part, arrivals uint64) (float64, error) {
	cfg := parts[0].cfg
	if cfg.Payload != core.PayloadPoisson {
		return 0, fmt.Errorf("arrival timing covers Poisson payload only, not %v", cfg.Payload)
	}
	per := max(int(arrivals), 100_000) / len(cfg.Rates)
	buf := make([]float64, 4096)
	var total time.Duration
	for i, r := range cfg.Rates {
		src, err := traffic.NewPoisson(r.PPS, xrand.New(cfg.Seed+uint64(i)))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for left := per; left > 0; left -= len(buf) {
			src.NextBatch(buf[:min(len(buf), left)])
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(per*len(cfg.Rates)), nil
}

// traced is the per-layer run: pairs of an untraced and a traced pass
// of the workload composed from the layers' public functions, on one
// worker so spans nest, until seconds have passed; then one traced pass
// of the probe composition. Metrics are medians over the traced passes;
// tracing overhead is traced minus untraced pass wall time.
func traced(w workload, seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	parts := w.parts(seed, 1)
	samples := map[string][]float64{}
	selfs := map[string][]float64{}
	var first string
	check := func(res []*core.Result, what string) {
		out.attempted++
		dig, problem := checkRun(w, parts, res, seed, first, nil)
		if first == "" {
			first = dig
		}
		if problem != "" {
			out.fail("%s failed the output check: %s", what, problem)
		}
	}
	// A small pass first, so lazy set-up and heap growth are paid before
	// the first measured pass.
	if _, _, err := (&composer{}).pass(w.parts(seed, warmBudget), ""); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		res, uwall, err := (&composer{}).pass(parts, "")
		if err != nil {
			return nil, fmt.Errorf("untraced pass %d: %w", i, err)
		}
		check(res, fmt.Sprintf("untraced pass %d", i))

		mark := len(tr.spans)
		runtime.GC()
		res, twall, metrics, self, err := tracedPass(tr, parts, fmt.Sprintf("pass%d", i))
		if err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", i, err)
		}
		check(res, fmt.Sprintf("traced pass %d", i))
		if i >= keptPasses {
			tr.spans = tr.spans[:mark]
		}
		metrics["trace.overhead_ms"] = 1e3 * (twall - uwall)
		for k, v := range metrics {
			samples[k] = append(samples[k], v)
		}
		for k, v := range self {
			selfs[k] = append(selfs[k], v)
		}
	}
	for k, v := range samples {
		out.metrics[k] = median(v)
	}

	// Shares of the workload's own traced time.
	var layers []string
	var total float64
	for _, l := range append([]string{layerRun}, spanLayers...) {
		if v := median(selfs[l]); v > 0 {
			layers = append(layers, l)
			total += v
		}
	}
	sort.Slice(layers, func(i, j int) bool { return median(selfs[layers[i]]) > median(selfs[layers[j]]) })
	for _, l := range layers {
		name := l
		if l == layerRun {
			name = "unattributed"
		}
		out.notef("self %-22s %10.3f ms %6.2f%%", name, 1e3*median(selfs[l]), 100*median(selfs[l])/total)
	}
	for _, l := range layers {
		if l != layerRun {
			out.notef("dominant layer: %s", l)
			break
		}
	}
	out.notef("traced passes: %d, digest %s", len(samples["trace.unattributed_ms"]), first)

	// The probe fills in layers the workload does not exercise.
	probe := probeParts(seed)
	res, _, metrics, _, err := tracedPass(tr, probe, "probe")
	if err != nil {
		return nil, fmt.Errorf("probe pass: %w", err)
	}
	out.attempted++
	for i, p := range probe {
		if err := checkResult(p, res[i]); err != nil {
			out.fail("probe failed the output check: %v", err)
		}
	}
	for k, v := range metrics {
		if _, ok := out.metrics[k]; !ok {
			out.metrics[k] = v
			out.notef("from probe: %s", k)
		}
	}
	return out, nil
}
