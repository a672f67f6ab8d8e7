package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"linkpad/internal/core"
)

// processStart approximates process start: package initialisation runs
// before main, after the runtime is up.
var processStart, stealAtStart = time.Now(), stealSeconds()

// stealSeconds reads the time the hypervisor has held this machine's
// runnable CPUs for other guests (the steal column of /proc/stat, in
// USER_HZ = 1/100 s ticks); 0 where it cannot be read. Timings subtract
// the steal that accrued while they ran, so a busy host does not read
// as a slow program.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// Set-up repetitions and the smallest number of measured runs.
const (
	setupReps   = 5
	minRuns     = 3
	warmBudget  = 0.2
	smokeBudget = 0.02
)

// outcome is what one benchmark invocation reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable lines printed before the result
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// maxFailNotes bounds how many failures are described; all are counted.
const maxFailNotes = 3

// fail counts a failed run and describes the first few.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= maxFailNotes {
		o.notef(format, args...)
	}
}

// build makes one scenario per part through the public API.
func build(parts []part) ([]core.Scenario, error) {
	scs := make([]core.Scenario, len(parts))
	for i, p := range parts {
		sys, err := core.NewSystem(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		if scs[i], err = sys.Build(p.spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return scs, nil
}

// cost is what a measured run used.
type cost struct {
	wall     float64 // wall-clock, s
	run      float64 // wall-clock minus the steal that accrued meanwhile, s
	cpu      float64 // user + system CPU, s
	allocMiB float64 // heap allocated
}

// measuredRun runs the scenarios in order, each from a freshly
// collected heap so that one scenario's garbage neither slows nor
// inflates the next, and sums what their Run calls used.
func measuredRun(scs []core.Scenario) ([]*core.Result, cost, error) {
	res := make([]*core.Result, len(scs))
	var c cost
	for i, sc := range scs {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, s0, t0 := cpuSeconds(), stealSeconds(), time.Now()
		r, err := sc.Run(context.Background(), core.RunOptions{Workers: workers})
		wall := time.Since(t0).Seconds()
		c.wall += wall
		c.run += wall - (stealSeconds() - s0)
		c.cpu += cpuSeconds() - c0
		runtime.ReadMemStats(&m1)
		c.allocMiB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		if err != nil {
			return nil, c, err
		}
		res[i] = r
	}
	return res, c, nil
}

// setup builds the measured scenarios and warms up on a run at
// warmBudget, so caches fill and lazy set-up finishes before timing.
func setup(w workload, seed uint64) ([]core.Scenario, error) {
	scs, err := build(w.parts(seed, 1))
	if err != nil {
		return nil, err
	}
	warm, err := build(w.parts(seed, warmBudget))
	if err != nil {
		return nil, err
	}
	if _, _, err := measuredRun(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return scs, nil
}

// checkRun returns why a run's results are wrong, or "" when they pass:
// the invariants, agreement with the invocation's first run, and at the
// default seed censoring (where the workload demands it) and the
// committed digest.
func checkRun(w workload, parts []part, res []*core.Result, seed uint64, first string, digests map[string]string) (dig, problem string) {
	for i, p := range parts {
		if err := checkResult(p, res[i]); err != nil {
			return "", err.Error()
		}
		if w.allCensored && seed == defaultSeed {
			if err := censored(p, res[i]); err != nil {
				return "", err.Error()
			}
		}
	}
	dig = digest(parts, res)
	if first != "" && dig != first {
		return dig, fmt.Sprintf("digest %s differs from the first run's %s", dig, first)
	}
	if want, ok := digests[w.name]; ok && seed == defaultSeed && dig != want {
		return dig, fmt.Sprintf("digest %s differs from the committed %q", dig, want)
	}
	return dig, ""
}

// cpuSeconds returns the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// workDone returns the work a measured run completes: PIATs classified
// or measured for replica parts, users × rounds for disclosure parts.
func workDone(parts []part, res []*core.Result) (piats, userRounds float64) {
	for i, p := range parts {
		switch sp := p.spec.(type) {
		case core.AttackSetSpec:
			a := sp.Attack
			piats += float64(len(p.cfg.Rates) * (a.TrainWindows + a.EvalWindows) * a.WindowSize)
			if !a.SkipEmpiricalR {
				piats += 2 * float64(empiricalRLen(a))
			}
		case core.DisclosureSpec:
			userRounds += float64(sp.Population.Users) * float64(res[i].Disclosure.Rounds)
		}
	}
	return piats, userRounds
}

// empiricalRLen is the PIAT count per class the attack reads for the
// variance ratio.
func empiricalRLen(a core.AttackConfig) int {
	return min(max(a.WindowSize*a.TrainWindows, 10_000), 400_000)
}

// endToEnd measures a workload through the public scenario API with
// telemetry off: setupReps set-ups, then measured runs until seconds
// have passed (at least minRuns).
func endToEnd(w workload, seed uint64, seconds float64, digests map[string]string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var setups []float64
	var scs []core.Scenario
	for i := 0; i < setupReps; i++ {
		t0, s0 := time.Now(), stealSeconds()
		if i == 0 {
			t0, s0 = processStart, stealAtStart
		}
		var err error
		if scs, err = setup(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()-(stealSeconds()-s0))
	}

	parts := w.parts(seed, 1)
	var wallS, runS, cpuS, allocMiB []float64
	var first string
	var piats, userRounds float64
	start := time.Now()
	for len(runS) < minRuns || time.Since(start).Seconds() < seconds {
		res, c, err := measuredRun(scs)
		out.attempted++
		wallS = append(wallS, c.wall)
		runS = append(runS, c.run)
		cpuS = append(cpuS, c.cpu)
		allocMiB = append(allocMiB, c.allocMiB)
		if err != nil {
			out.fail("run %d failed: %v", out.attempted, err)
			continue
		}
		dig, problem := checkRun(w, parts, res, seed, first, digests)
		if first == "" {
			first = dig
			piats, userRounds = workDone(parts, res)
		}
		if problem != "" {
			out.fail("run %d failed the output check: %s", out.attempted, problem)
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	run := median(runS)
	out.metrics["setup_s"] = median(setups)
	out.metrics["run_s"] = run
	out.metrics["cpu_s"] = median(cpuS)
	out.metrics["alloc_mib"] = median(allocMiB)
	out.metrics["peak_rss_mib"] = rss
	pct, tailRun := tail(runS)
	out.notef("run_s: median %.6f s, p%.0f %.6f s over %d runs; wall-clock before removing steal: median %.6f s",
		run, pct, tailRun, len(runS), median(wallS))
	out.notef("digest %s", first)
	if piats > 0 {
		out.notef("piats_per_s %.6g 1/s", piats/run)
	}
	if userRounds > 0 {
		out.notef("user_rounds_per_s %.6g 1/s", userRounds/run)
	}
	out.notef("failed_frac %g", float64(out.failed)/float64(out.attempted))
	return out, nil
}
