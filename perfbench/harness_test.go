package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/bayes"
	"linkpad/internal/core"
	"linkpad/internal/population"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Parent: -1, Layer: "run", Op: "root", Start: 0, End: 100 * ms},
		// Two overlapping children: together they cover [10, 60).
		{ID: 1, Parent: 0, Layer: "a", Op: "x", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Layer: "b", Op: "y", Start: 30 * ms, End: 60 * ms},
		// A grandchild nested in the first child.
		{ID: 3, Parent: 1, Layer: "c", Op: "z", Start: 15 * ms, End: 20 * ms},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 2, Layer: "c", Op: "z", Start: 55 * ms, End: 70 * ms},
		// A span whose parent is outside the set is a root.
		{ID: 5, Parent: 99, Layer: "a", Op: "w", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"run":      0.050, // 100 − union [10, 60)
		"a":        0.035, // (30 − 5) + 10
		"a/x":      0.025,
		"a/w":      0.010,
		"b":        0.025, // 30 − [55, 60)
		"c":        0.020, // 5 + 15: a child's own duration is not clipped
		"c/z":      0.020,
		"run/root": 0.050,
	}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-12 {
			t.Errorf("self[%q] = %g, want %g", k, self[k], v)
		}
	}
	if got := covered(0, 10, []interval{{2, 4}, {3, 6}, {8, 20}, {-5, 1}}); got != 7 {
		t.Errorf("covered = %d, want 7", got)
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.setRun("r")
	a := tr.begin("run", "root")
	b := tr.begin("netem", "pull")
	tr.end(b)
	tr.end(a)
	tr.setRun("other")
	tr.end(tr.begin("bayes", "train"))
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if n := len(tr.runSpans("r")); n != 2 {
		t.Fatalf("run r has %d spans, want 2", n)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "y")) // a nil tracer records nothing

	path := filepath.Join(t.TempDir(), "spans", "s.jsonl")
	if err := tr.write(path, map[string]string{"seed": "1"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d is not JSON: %s", lines, sc.Text())
		}
	}
	if lines != 4 {
		t.Fatalf("%d lines, want a header and 3 spans", lines)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{100, 90, 90},       // ten samples (91..100) lie beyond p90
		{2000, 99, 1980},    // enough samples for p99
		{11, 100.0 / 11, 1}, // the smallest count that has a tail
		{10, 50, 5.5},       // no percentile qualifies: the median
	} {
		pct, v := tail(seq(tc.n))
		if math.Abs(pct-tc.pct) > 1e-9 || v != tc.value {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.value)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value", tc.n, beyond)
		}
	}
}

func TestCheckResultCatchesBrokenOutputs(t *testing.T) {
	cfg := labConfig(1)
	cm := bayes.NewConfusion([]string{"a", "b"})
	cm.Add(0, 0)
	replica := part{"r", cfg, core.AttackSetSpec{
		Attack:   core.AttackConfig{EvalWindows: 2, SkipEmpiricalR: true},
		Features: []analytic.Feature{analytic.FeatureMean},
	}}
	if err := checkResult(replica, &core.Result{AttackSet: []*core.AttackResult{
		{Feature: analytic.FeatureMean, Confusion: cm, DetectionRate: 1}}}); err == nil {
		t.Error("a confusion total short of classes × eval windows passed")
	}
	sda := part{"d", cfg, core.DisclosureSpec{Disclosure: population.DisclosureConfig{MaxRounds: 50}}}
	broken := map[string]*population.DisclosureResult{
		"rounds over the budget": {Rounds: 51},
		"a censored target short of the budget": {Rounds: 50, MeanRounds: 30,
			Targets: []population.TargetOutcome{{Rounds: 30}}},
		"a stop before the budget with a target censored": {Rounds: 30, MeanRounds: 50,
			Targets: []population.TargetOutcome{{Rounds: 50}}},
		"a disclosure after the last observed round": {Rounds: 20, MeanRounds: 25, DisclosedFrac: 1,
			Targets: []population.TargetOutcome{{Disclosed: true, Rounds: 25}}},
		"a summary that disagrees with its targets": {Rounds: 50, MeanRounds: 50, DisclosedFrac: 1,
			Targets: []population.TargetOutcome{{Rounds: 50}}},
	}
	for what, d := range broken {
		if err := checkResult(sda, &core.Result{Disclosure: d}); err == nil {
			t.Errorf("%s passed", what)
		}
	}
	disclosed := &core.Result{Disclosure: &population.DisclosureResult{Rounds: 50, MeanRounds: 37.5, DisclosedFrac: 0.5,
		Targets: []population.TargetOutcome{{Disclosed: true, Rounds: 25}, {User: 1, Rounds: 50}}}}
	if err := checkResult(sda, disclosed); err != nil {
		t.Errorf("a correct early disclosure failed the invariants: %v", err)
	}
	w := workload{allCensored: true}
	parts, res := []part{sda}, []*core.Result{disclosed}
	if _, problem := checkRun(w, parts, res, defaultSeed, "", nil); problem == "" {
		t.Error("a disclosed target passed the default seed of a workload that requires censoring")
	}
	if _, problem := checkRun(w, parts, res, defaultSeed+1, "", nil); problem != "" {
		t.Errorf("a correct early disclosure failed another seed: %s", problem)
	}
}

// smoke shrinks a workload to a tiny budget.
func smoke(w workload) workload {
	full := w.parts
	w.parts = func(seed uint64, budget float64) []part { return full(seed, smokeBudget*budget) }
	return w
}

func TestDigestMismatchCountsAsFailed(t *testing.T) {
	w := smoke(workloads[0])
	good, err := endToEnd(w, defaultSeed, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || good.attempted < minRuns {
		t.Fatalf("without a committed digest: %d of %d failed", good.failed, good.attempted)
	}
	bad, err := endToEnd(w, defaultSeed, 1e-3, map[string]string{w.name: "0000000000000000"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed != bad.attempted {
		t.Fatalf("with a wrong committed digest: %d of %d failed, want all", bad.failed, bad.attempted)
	}
	// Another seed is checked by its invariants, not the digest.
	other, err := endToEnd(w, defaultSeed+1, 1e-3, map[string]string{w.name: "0000000000000000"})
	if err != nil {
		t.Fatal(err)
	}
	if other.failed != 0 {
		t.Fatalf("seed %d: %d of %d failed", defaultSeed+1, other.failed, other.attempted)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "sda-million-ls" {
				t.Skip("builds a million-user population")
			}
			w := smoke(w)
			e2e, err := endToEnd(w, defaultSeed, 1e-3, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := traced(w, defaultSeed, 1e-3, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				out  *outcome
				want []metric
			}{{e2e, endToEndMetrics}, {tr, layerMetricList}} {
				if c.out.failed != 0 {
					t.Errorf("%d of %d runs failed: %v", c.out.failed, c.out.attempted, c.out.notes)
				}
				for _, m := range c.want {
					v, ok := c.out.metrics[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v, %v", m.name, v, ok)
					}
				}
			}
			for _, m := range endToEndMetrics {
				if !(e2e.metrics[m.name] > 0) {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.name, e2e.metrics[m.name])
				}
			}
		})
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, reported %s %s", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, layerMetricList)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, defined %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
