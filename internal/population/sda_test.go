package population

import (
	"reflect"
	"testing"

	"linkpad/internal/obs"
)

// Without cover traffic a small population must disclose its targets'
// contact sets quickly, and the reported rounds must reflect the
// checkpoint granularity.
func TestDisclosureIdentifiesContacts(t *testing.T) {
	users, recipients := testUsers(t, 16, false)
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DisclosureConfig{
		Batch:     6,
		Targets:   []int{0, 3, 8, 13},
		MaxRounds: 3000,
	}
	res, err := e.RunDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DisclosedFrac != 1 {
		t.Fatalf("disclosed %.2f of targets without cover, want all (result %+v)",
			res.DisclosedFrac, res.Targets)
	}
	for _, tg := range res.Targets {
		if !tg.Disclosed {
			t.Errorf("target %d not disclosed", tg.User)
		}
		if tg.Rounds <= 0 || tg.Rounds > cfg.MaxRounds {
			t.Errorf("target %d rounds %d out of range", tg.User, tg.Rounds)
		}
		if tg.Rounds%25 != 0 {
			t.Errorf("target %d rounds %d not aligned to the checkpoint granularity", tg.User, tg.Rounds)
		}
		if tg.RoundsWith <= 0 {
			t.Errorf("target %d never appeared in a round", tg.User)
		}
		if tg.DegreeOfAnonymity <= 0 || tg.DegreeOfAnonymity >= 1 {
			t.Errorf("target %d anonymity %v out of (0,1)", tg.User, tg.DegreeOfAnonymity)
		}
	}
	if res.MeanRounds <= 0 || res.MeanRounds >= float64(cfg.MaxRounds) {
		t.Errorf("mean rounds %v out of range", res.MeanRounds)
	}
}

// Cover traffic must slow disclosure: more rounds, higher residual
// anonymity.
func TestDisclosureCoverResists(t *testing.T) {
	run := func(cover bool) *DisclosureResult {
		users, recipients := testUsers(t, 16, cover)
		e, err := NewEngine(users, recipients)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunDisclosure(DisclosureConfig{
			Batch:     6,
			Targets:   []int{0, 3, 8, 13},
			MaxRounds: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clear := run(false)
	covered := run(true)
	if covered.MeanRounds <= clear.MeanRounds {
		t.Errorf("cover traffic should slow disclosure: %v rounds covered vs %v clear",
			covered.MeanRounds, clear.MeanRounds)
	}
	if covered.MeanAnonymity <= clear.MeanAnonymity {
		t.Errorf("cover traffic should raise anonymity: %v covered vs %v clear",
			covered.MeanAnonymity, clear.MeanAnonymity)
	}
}

func TestDisclosureValidation(t *testing.T) {
	users, recipients := testUsers(t, 8, false)
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunDisclosure(DisclosureConfig{Targets: []int{99}}); err == nil {
		t.Error("out-of-range target should fail")
	}
	e2, _ := NewEngine(users, recipients)
	if _, err := e2.RunDisclosure(DisclosureConfig{Targets: []int{1, 1}}); err == nil {
		t.Error("duplicate target should fail")
	}
	e3, _ := NewEngine(users, recipients)
	if _, err := e3.RunDisclosure(DisclosureConfig{Batch: -1}); err == nil {
		t.Error("negative batch should fail")
	}
}

// dirtyReadyCounter wraps an ML estimator and counts the ready() calls
// that find fresh statistics and an estimate to compute: the calls that
// must refresh.
type dirtyReadyCounter struct {
	*mlEstimator
	calls *int
}

func (c dirtyReadyCounter) ready() bool {
	dirty := c.dirty
	ok := c.mlEstimator.ready()
	if dirty && ok {
		*c.calls++
	}
	return ok
}

// The ML refresh and EM sweep counters follow the probe contract: the
// result is the same with telemetry on and off, every counter total is
// the same at -workers 1 and 4, and the refresh counter equals the
// dirty ready() calls, each of which runs mlEMIters sweeps unless the
// target has no with-round delivery yet.
func TestMLRefreshCounters(t *testing.T) {
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Reset()
	})
	run := func(telemetry bool, workers int) (*DisclosureResult, [obs.NumCounters]uint64, int) {
		obs.SetEnabled(telemetry)
		obs.Reset()
		e, err := NewEngine(refUsers(t, adaptiveUsers, adaptiveRcpts, true, false), adaptiveRcpts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.StartDisclosure(DisclosureConfig{
			Batch:     adaptiveBatch,
			Mix:       MixSpec{Kind: MixPool},
			Estimator: EstimatorML,
			Dummies:   DummyAdaptive,
			MaxRounds: 120,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for i := range r.d.targets {
			r.d.targets[i].est = dirtyReadyCounter{r.d.targets[i].est.(*mlEstimator), &calls}
		}
		if _, err := r.Step(120); err != nil {
			t.Fatal(err)
		}
		res := r.Result()
		return res, obs.Snapshot(), calls
	}
	base, off, _ := run(false, 1)
	if off != ([obs.NumCounters]uint64{}) {
		t.Fatalf("disabled telemetry counted %v", off)
	}
	var ref [obs.NumCounters]uint64
	for i, workers := range []int{1, 4} {
		res, snap, calls := run(true, workers)
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: result with telemetry on differs from the one with it off", workers)
		}
		refreshes, sweeps := snap[obs.PopulationMLRefresh], snap[obs.PopulationEMSweep]
		if refreshes != uint64(calls) {
			t.Fatalf("workers=%d: %d refreshes counted, %d dirty ready() calls", workers, refreshes, calls)
		}
		if refreshes < 100 || sweeps == 0 || sweeps%mlEMIters != 0 || sweeps > mlEMIters*refreshes {
			t.Fatalf("workers=%d: %d refreshes and %d sweeps", workers, refreshes, sweeps)
		}
		if i == 0 {
			ref = snap
			t.Logf("%d refreshes, %d EM sweeps", refreshes, sweeps)
		} else if snap != ref {
			t.Fatalf("workers=%d: counters %v differ from workers=1's %v", workers, snap, ref)
		}
	}
}
