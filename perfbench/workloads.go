package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"linkpad/internal/analytic"
	"linkpad/internal/core"
	"linkpad/internal/population"
	"linkpad/internal/traffic"
)

// defaultSeed is the workload seed the committed digests were made for.
const defaultSeed = 1

// part is one scenario of a workload: a system configuration and the
// spec built against it.
type part struct {
	label string
	cfg   core.Config
	spec  core.Spec
}

// workload is one benchmark input: scenario parts run in order, one
// after the other, as a single measured run.
type workload struct {
	name string
	// parts builds the scenarios for a seed at a fraction of the full
	// observation budget (1 is the measured run; less is warm-up and
	// smoke). Floors keep every part valid at any budget.
	parts func(seed uint64, budget float64) []part
	// allCensored requires every disclosure target to stay undisclosed
	// at defaultSeed: the budget is chosen so that runs do the same work.
	// Other seeds may disclose a target early, since disclosure means the
	// estimator found the true contact set; that is a correct outcome.
	allCensored bool
}

// Budgets of the measured runs.
const (
	// labWindows is the per-class training and evaluation window count
	// at n = 2000; n = 100 uses twenty times as many, for equal PIAT
	// volume.
	labWindows = 100
	// wanWindows is the per-class window count at n = 1000, per hour.
	wanWindows = 50
	// mlRounds is sda-ml-adaptive's round budget per replica.
	mlRounds = 200
	// millionRounds is sda-million-ls's round budget per cover level.
	millionRounds = 192
	// mlSecondSeed offsets the seed of sda-ml-adaptive's second replica.
	mlSecondSeed = 1_000_003
)

var workloads = []workload{
	{name: "replica-lab", parts: replicaLab},
	{name: "replica-wan", parts: replicaWAN},
	{name: "sda-ml-adaptive", parts: sdaMLAdaptive, allCensored: true},
	{name: "sda-million-ls", parts: sdaMillionLS},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaled shrinks a budget count, never below floor.
func scaled(n int, budget float64, floor int) int {
	return max(int(math.Round(float64(n)*budget)), floor)
}

var replicaFeatures = []analytic.Feature{
	analytic.FeatureMean, analytic.FeatureVariance, analytic.FeatureEntropy,
}

func labConfig(seed uint64) core.Config {
	cfg := core.DefaultLabConfig()
	cfg.Seed = seed
	return cfg
}

// replicaLab is the paper's replica-window attack on the §5.1 lab link
// (CIT at τ = 10 ms, 10 vs 40 pps Poisson, no router hops) at n = 100
// and n = 2000 with equal PIAT volume; EmpiricalR is measured once.
func replicaLab(seed uint64, budget float64) []part {
	cfg := labConfig(seed)
	attack := func(n, windows int, skipR bool) core.AttackSetSpec {
		w := scaled(windows, budget, 2)
		return core.AttackSetSpec{
			Attack: core.AttackConfig{WindowSize: n, TrainWindows: w, EvalWindows: w,
				SkipEmpiricalR: skipR},
			Features: replicaFeatures,
		}
	}
	return []part{
		{"n100", cfg, attack(100, 20*labWindows, true)},
		{"n2000", cfg, attack(2000, labWindows, false)},
	}
}

// wanHops is Fig. 8b's 15-router WAN path: 622 Mbit/s links, 1500 B
// packets, 5–30% diurnal utilisation, 2 ms propagation per hop.
func wanHops() []core.HopSpec {
	hops := make([]core.HopSpec, 15)
	for i := range hops {
		hops[i] = core.HopSpec{
			CapacityBps: 622e6,
			PacketBytes: 1500,
			Util:        traffic.Diurnal{Trough: 0.05, Peak: 0.30, TroughHour: 3},
			PropDelay:   2e-3,
		}
	}
	return hops
}

// replicaWAN is the same attack over the WAN path at n = 1000, at the
// trough hour (3, where EmpiricalR is measured) and the peak hour (15).
func replicaWAN(seed uint64, budget float64) []part {
	var parts []part
	for _, hour := range []float64{3, 15} {
		cfg := labConfig(seed)
		cfg.Hops = wanHops()
		cfg.StartHour = hour
		w := scaled(wanWindows, budget, 2)
		parts = append(parts, part{fmt.Sprintf("hour%g", hour), cfg, core.AttackSetSpec{
			Attack: core.AttackConfig{WindowSize: 1000, TrainWindows: w, EvalWindows: w,
				SkipEmpiricalR: hour != 3},
			Features: replicaFeatures,
		}})
	}
	return parts
}

// sdaMLAdaptive is the arms race's costliest cell: the iterative ML
// estimator against a pool mix and adaptive dummies at cover rate 1.0,
// 24 users, 60 recipients, batch 48, the default 8 targets. How long
// the estimator iterates depends on the seed, so the cell runs on two
// independent seeds to keep the work per run steady across seeds.
func sdaMLAdaptive(seed uint64, budget float64) []part {
	var parts []part
	for i, s := range []uint64{seed, seed + mlSecondSeed} {
		parts = append(parts, part{fmt.Sprintf("replica%d", i), labConfig(s), core.DisclosureSpec{
			Population: core.PopulationSpec{Users: 24, Recipients: 60, CoverRate: 1,
				Dummies: population.DummyAdaptive},
			Disclosure: population.DisclosureConfig{
				Batch:     48,
				Mix:       population.MixSpec{Kind: population.MixPool},
				Estimator: population.EstimatorML,
				MaxRounds: scaled(mlRounds, budget, 25),
			},
		}})
	}
	return parts
}

// sdaMillionLS is the scale-sda-ls geometry: a million users, 10 000
// recipients, batch 1024, the least-squares estimator behind a
// threshold mix, at cover rate 0 and 1.
func sdaMillionLS(seed uint64, budget float64) []part {
	var parts []part
	for _, cover := range []float64{0, 1} {
		parts = append(parts, part{fmt.Sprintf("cover%g", cover), labConfig(seed), core.DisclosureSpec{
			Population: core.PopulationSpec{Users: 1_000_000, Recipients: 10_000, CoverRate: cover},
			Disclosure: population.DisclosureConfig{
				Batch:      1024,
				Estimator:  population.EstimatorLeastSquares,
				MaxRounds:  scaled(millionRounds, budget, 16),
				CheckEvery: 16,
			},
		}})
	}
	return parts
}

// checkResult tests the invariants that hold for every seed: confusion
// totals equal classes × evaluation windows, rates are probabilities,
// rounds never exceed the budget, the run stops early only once every
// target is disclosed, and the summary agrees with the per-target
// outcomes.
func checkResult(p part, r *core.Result) error {
	if r == nil {
		return errors.New("nil result")
	}
	switch sp := p.spec.(type) {
	case core.AttackSetSpec:
		if len(r.AttackSet) != len(sp.Features) {
			return fmt.Errorf("%s: %d feature results, want %d", p.label, len(r.AttackSet), len(sp.Features))
		}
		classes := len(p.cfg.Rates)
		for _, ar := range r.AttackSet {
			if got, want := ar.Confusion.Total(), classes*sp.Attack.EvalWindows; got != want {
				return fmt.Errorf("%s/%v: confusion total %d, want %d", p.label, ar.Feature, got, want)
			}
			if !(ar.DetectionRate >= 0 && ar.DetectionRate <= 1) {
				return fmt.Errorf("%s/%v: detection rate %g", p.label, ar.Feature, ar.DetectionRate)
			}
			if !sp.Attack.SkipEmpiricalR && !(ar.EmpiricalR > 0) {
				return fmt.Errorf("%s: empirical r %g", p.label, ar.EmpiricalR)
			}
		}
	case core.DisclosureSpec:
		d := r.Disclosure
		if d == nil {
			return fmt.Errorf("%s: no disclosure result", p.label)
		}
		budget := sp.Disclosure.MaxRounds
		if d.Rounds > budget {
			return fmt.Errorf("%s: %d rounds over a budget of %d", p.label, d.Rounds, budget)
		}
		disclosed, sumRounds := 0, 0
		for _, t := range d.Targets {
			if t.Disclosed {
				disclosed++
				if t.Rounds < 1 || t.Rounds > d.Rounds {
					return fmt.Errorf("%s: target %d disclosed at round %d of %d observed",
						p.label, t.User, t.Rounds, d.Rounds)
				}
			} else if t.Rounds != budget {
				return fmt.Errorf("%s: censored target %d at round %d, want the budget %d",
					p.label, t.User, t.Rounds, budget)
			}
			if t.RoundsWith > d.Rounds {
				return fmt.Errorf("%s: target %d sent in %d of %d rounds", p.label, t.User, t.RoundsWith, d.Rounds)
			}
			if !(t.DegreeOfAnonymity >= 0 && t.DegreeOfAnonymity <= 1) {
				return fmt.Errorf("%s: target %d anonymity %g", p.label, t.User, t.DegreeOfAnonymity)
			}
			sumRounds += t.Rounds
		}
		if disclosed < len(d.Targets) && d.Rounds != budget {
			return fmt.Errorf("%s: stopped at round %d of %d with %d of %d targets disclosed",
				p.label, d.Rounds, budget, disclosed, len(d.Targets))
		}
		if n := float64(len(d.Targets)); n > 0 &&
			(d.DisclosedFrac != float64(disclosed)/n || math.Abs(d.MeanRounds-float64(sumRounds)/n) > 1e-9*float64(budget)) {
			return fmt.Errorf("%s: summary (disclosed %g, mean rounds %g) disagrees with %d of %d disclosed over %d rounds",
				p.label, d.DisclosedFrac, d.MeanRounds, disclosed, len(d.Targets), sumRounds)
		}
	default:
		return fmt.Errorf("%s: unsupported spec %T", p.label, p.spec)
	}
	return nil
}

// censored returns why a disclosure run that must censor every target
// did not, or nil.
func censored(p part, r *core.Result) error {
	if d := r.Disclosure; d != nil {
		for _, t := range d.Targets {
			if t.Disclosed {
				return fmt.Errorf("%s: target %d disclosed at round %d; the budget must censor every target at the default seed",
					p.label, t.User, t.Rounds)
			}
		}
	}
	return nil
}

// digest condenses a run's results to a short hash: per-feature
// confusion counts and detection rates for replica parts; rounds,
// per-target outcomes and anonymity for disclosure parts. Floats are
// printed to six decimals, finer than the tables the repository
// publishes.
func digest(parts []part, res []*core.Result) string {
	var b strings.Builder
	for i, p := range parts {
		fmt.Fprintf(&b, "part %s\n", p.label)
		r := res[i]
		for _, ar := range r.AttackSet {
			fmt.Fprintf(&b, "%v n=%d rate=%.6f counts=", ar.Feature, ar.WindowSize, ar.DetectionRate)
			k := len(p.cfg.Rates)
			for t := 0; t < k; t++ {
				for q := 0; q < k; q++ {
					fmt.Fprintf(&b, "%d,", ar.Confusion.Count(t, q))
				}
			}
			b.WriteByte('\n')
		}
		if d := r.Disclosure; d != nil {
			fmt.Fprintf(&b, "rounds=%d mean_rounds=%.6f disclosed=%.6f anonymity=%.6f\n",
				d.Rounds, d.MeanRounds, d.DisclosedFrac, d.MeanAnonymity)
			for _, t := range d.Targets {
				fmt.Fprintf(&b, "target %d disclosed=%t rounds=%d with=%d anonymity=%.6f\n",
					t.User, t.Disclosed, t.Rounds, t.RoundsWith, t.DegreeOfAnonymity)
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// committedDigests are the result digests of each workload's measured
// run at defaultSeed. A run at that seed whose digest differs counts as
// failed.
var committedDigests = map[string]string{
	"replica-lab":     "27258d7d1a3fa747",
	"replica-wan":     "ed3151cfbc6527b8",
	"sda-ml-adaptive": "f1f5dead2fca04ad",
	"sda-million-ls":  "af7338e233fc763b",
}
