// Command perfbench is the repository's benchmark. It runs one workload
// either end to end through the public scenario API (--trace 0, the
// metrics users see) or as a traced run composed from the layers' public
// functions (--trace 1, per-layer metrics), checks the outputs, and
// prints every metric by name and unit, then one JSON result line.
//
//	go run . --workload replica-lab --seed 1 --seconds 10 --trace 0
//
// WORKLOADS.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
}

// layerMetricList is reported by every workload with --trace 1.
var layerMetricList = []metric{
	{"traffic.ns_per_arrival", "ns"},
	{"gateway.ns_per_pkt", "ns"},
	{"gateway.pkts", "count"},
	{"gateway.payload_frac", "fraction"},
	{"gateway.stalls", "count"},
	{"netem.ns_per_pkt", "ns"},
	{"netem.ns_per_pkt_hop", "ns"},
	{"core.chain_build_us", "us"},
	{"core.chains", "count"},
	{"adversary.ns_per_piat", "ns"},
	{"adversary.windows", "count"},
	{"adversary.slabs", "count"},
	{"adversary.empirical_r_ms", "ms"},
	{"bayes.train_ms", "ms"},
	{"bayes.classify_ns_per_window", "ns"},
	{"population.engine.build_ms", "ms"},
	{"population.engine.warm_users", "count"},
	{"population.engine.us_per_round", "us"},
	{"population.engine.messages", "count"},
	{"population.engine.active_users", "count"},
	{"population.mix.us_per_round", "us"},
	{"population.disclosure.us_per_round", "us"},
	{"population.disclosure.step_us_p50", "us"},
	{"population.disclosure.step_us_p99", "us"},
	{"population.disclosure.step_tail_pct", "%"},
	{"population.disclosure.rounds", "count"},
	{"population.disclosure.snapshot_ms", "ms"},
	{"population.disclosure.snapshot_bytes", "bytes"},
	{"core.self_ms", "ms"},
	{"gateway.self_ms", "ms"},
	{"netem.self_ms", "ms"},
	{"adversary.self_ms", "ms"},
	{"bayes.self_ms", "ms"},
	{"population.engine.self_ms", "ms"},
	{"population.mix.self_ms", "ms"},
	{"population.disclosure.self_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// workers is the scenario worker width and GOMAXPROCS of every run. On
// a host whose CPUs are shared with other guests, a second thread's
// progress depends on the neighbours, and the time the host steals can
// only be subtracted cleanly while a single CPU is busy.
const workers = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// comparabilityKey stamps a result with what must match before two
// results are compared.
func comparabilityKey(seed uint64) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]string{
		"seed":       fmt.Sprint(seed),
		"workers":    fmt.Sprint(workers),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: replica-lab, replica-wan, sda-ml-adaptive or sda-million-ls")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the committed digests hold for the default")
	seconds := fs.Float64("seconds", 10, "how long to keep measuring")
	trace := fs.Int("trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		if err == nil {
			err = fmt.Errorf("bad --trace or --seconds")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	runtime.GOMAXPROCS(workers)
	key := comparabilityKey(*seed)
	want := endToEndMetrics
	var out *outcome
	if *trace == 1 {
		want = layerMetricList
		tr := newTracer()
		out, err = traced(w, *seed, *seconds, tr)
		if err == nil {
			path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
			err = tr.write(path, key)
			out.notef("spans: %d written to %s", len(tr.spans), path)
		}
	} else {
		out, err = endToEnd(w, *seed, *seconds, committedDigests)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, w.name, key, want, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the key, the notes and every wanted metric by name and
// unit, then the JSON result as the last line. A wanted metric that is
// missing or not finite is an error.
func report(wr io.Writer, name string, key map[string]string, want []metric, out *outcome) error {
	keys := make([]string, 0, len(key))
	for k := range key {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s", name)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, key[k])
	}
	fmt.Fprintln(wr, b.String())
	for _, n := range out.notes {
		fmt.Fprintln(wr, n)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", m.name)
		}
		fmt.Fprintf(wr, "metric %-40s %.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(wr, string(line))
	return err
}
