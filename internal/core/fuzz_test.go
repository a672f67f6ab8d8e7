package core

import (
	"math"
	"testing"

	"linkpad/internal/population"
)

// fuzz_test.go: Build-time validation must be total. A DisclosureSpec
// assembled from arbitrary field values — NaN rates, negative budgets,
// absurd mix parameters, out-of-range enum codes, duplicate targets —
// must either build or return an error; Scenario.Build never panics.
// This is the fuzz companion of the checkpoint-decode fuzzers
// (internal/experiment, internal/netem): those guard resume inputs,
// this guards spec inputs.

// FuzzDisclosureSpecBuild throws arbitrary field values at
// DisclosureSpec validation. The seed corpus pins one representative of
// every axis: each mix kind, estimator and dummy policy, the documented
// invalid shapes, and the extreme floats validation must tolerate.
func FuzzDisclosureSpecBuild(f *testing.F) {
	// users, recipients, contacts, coverMilli, dummies,
	// batch, mixKind, retainMilli, periodMilli, mixSeed,
	// estimator, maxRounds, checkEvery, consecutive, workers, targets
	add := func(users, recipients, contacts, coverMilli, dummies,
		batch, mixKind, retainMilli, periodMilli int, mixSeed uint64,
		estimator, maxRounds, checkEvery, consecutive, workers int, targets []byte) {
		f.Add(users, recipients, contacts, coverMilli, dummies,
			batch, mixKind, retainMilli, periodMilli, mixSeed,
			estimator, maxRounds, checkEvery, consecutive, workers, targets)
	}
	add(24, 60, 3, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 2, 1, nil)             // default threshold/classic/none
	add(24, 60, 3, 1000, 1, 8, 1, 500, 0, 7, 1, 400, 25, 2, 0, nil)        // pool/ls/uniform with cover
	add(24, 60, 3, 1000, 2, 8, 2, 0, 250, 0, 2, 400, 25, 2, 2, nil)        // timed/ml/adaptive
	add(24, 60, 3, 0, 1, 8, 0, 0, 0, 0, 0, 400, 25, 2, 1, nil)             // uniform dummies without cover: invalid
	add(24, 60, 3, 0, 9, 8, 0, 0, 0, 0, 0, 400, 25, 2, 1, nil)             // unknown dummy policy
	add(24, 60, 3, 0, 0, 8, 7, 0, 0, 0, 0, 400, 25, 2, 1, nil)             // unknown mix kind
	add(24, 60, 3, 0, 0, 8, 0, 0, 0, 0, -3, 400, 25, 2, 1, nil)            // unknown estimator
	add(24, 60, 3, 0, 0, 8, 1, 990, 0, 0, 0, 400, 25, 2, 1, nil)           // pool retain past the cap
	add(24, 60, 3, 0, 0, 8, 0, 500, 0, 0, 0, 400, 25, 2, 1, nil)           // threshold with pool params
	add(24, 60, 3, 0, 0, 8, 2, 0, -40, 0, 0, 400, 25, 2, 1, nil)           // timed with negative period
	add(1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, nil)                  // degenerate population
	add(24, 60, 3, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 2, 1, []byte{3, 3})    // duplicate targets
	add(24, 60, 3, 0, 0, 8, 0, 0, 0, 0, 0, 400, 25, 2, 1, []byte{200})     // target out of range
	add(-5, -5, -1, -1, 0, -8, 0, 0, 0, 0, 0, -1, -1, -1, -1, []byte{255}) // everything negative
	add(1<<40, 60, 3, 0, 0, 8, 0, 0, 0, ^uint64(0), 0, 1<<50, 1, 1, 1, nil)

	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, users, recipients, contacts, coverMilli, dummies,
		batch, mixKind, retainMilli, periodMilli int, mixSeed uint64,
		estimator, maxRounds, checkEvery, consecutive, workers int, targets []byte) {
		cover := float64(coverMilli) / 1000
		if coverMilli == -1 {
			cover = math.NaN()
		}
		spec := DisclosureSpec{
			Population: PopulationSpec{
				Users:      users,
				Recipients: recipients,
				Contacts:   contacts,
				CoverRate:  cover,
				Dummies:    population.DummyPolicy(dummies),
			},
			Disclosure: population.DisclosureConfig{
				Batch: batch,
				Mix: population.MixSpec{
					Kind:   population.MixKind(mixKind),
					Retain: float64(retainMilli) / 1000,
					Period: float64(periodMilli) / 1000,
					Seed:   mixSeed,
				},
				Estimator:   population.EstimatorKind(estimator),
				Dummies:     population.DummyPolicy(dummies),
				MaxRounds:   maxRounds,
				CheckEvery:  checkEvery,
				Consecutive: consecutive,
				Workers:     workers,
			},
		}
		for _, b := range targets {
			spec.Disclosure.Targets = append(spec.Disclosure.Targets, int(b)-64)
		}
		// Build must validate or reject — never panic. (The scenario is
		// not run: a valid spec with a huge budget is still a valid spec.)
		if _, err := sys.Build(spec); err != nil {
			return
		}
		// A spec Build accepted must also pass the population layer's
		// standalone validation — Build cannot be more permissive than
		// the engine it hands the config to.
		cfg := spec.Disclosure
		cfg.Dummies = spec.Population.Dummies
		if err := cfg.Validate(spec.Population.Users); err != nil {
			t.Fatalf("Build accepted a spec the population layer rejects: %v", err)
		}
	})
}
