package core

import (
	"reflect"
	"runtime"
	"testing"

	"linkpad/internal/analytic"
	"linkpad/internal/population"
	"linkpad/internal/traffic"
)

// Population results must be byte-identical at any worker width,
// mirroring TestRunAttackWorkerInvariance: users are the unit of
// parallelism and every user's streams derive from (seed, class,
// userID) alone.
func TestRunDisclosureWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 24, Recipients: 40, CoverRate: 0.5}
	run := func(workers int) *population.DisclosureResult {
		res, err := sys.RunDisclosure(spec, population.DisclosureConfig{
			MaxRounds: 800,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: disclosure result differs\n got %+v\nwant %+v", w, got, ref)
		}
	}
}

func TestRunFlowCorrelationWorkerInvariance(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 8, Recipients: 40}
	cfg := FlowCorrConfig{
		Duration:      20,
		FeatureWindow: 100,
		TrainWindows:  12,
		Features:      []analytic.Feature{analytic.FeatureVariance},
	}
	run := func(workers int) *population.FlowCorrResult {
		c := cfg
		c.Workers = workers
		res, err := sys.RunFlowCorrelation(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := run(w)
		if *got != *ref {
			t.Fatalf("workers=%d: flow result %+v differs from reference %+v", w, got, ref)
		}
	}
}

// The paper's central claim carries to the population: CIT padding
// erases the throughput fingerprint (matching collapses toward the
// class anonymity set) while the unpadded link loses every flow.
func TestFlowCorrelationPaddingProtects(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 12, Recipients: 40}
	raw, err := sys.RunFlowCorrelation(spec, FlowCorrConfig{Duration: 30, Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Accuracy != 1 || raw.MeanCorrTrue < 0.99 {
		t.Errorf("unpadded flows should be fully correlated: %+v", raw)
	}
	cit, err := sys.RunFlowCorrelation(spec, FlowCorrConfig{
		Duration:      30,
		FeatureWindow: 100,
		TrainWindows:  20,
		Features:      []analytic.Feature{analytic.FeatureVariance},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cit.Accuracy > 0.5 {
		t.Errorf("CIT padding should break per-flow matching, accuracy %v", cit.Accuracy)
	}
	if cit.MeanCorrTrue > 0.2 {
		t.Errorf("CIT padding should erase the throughput fingerprint, correlation %v", cit.MeanCorrTrue)
	}
	if cit.ClassAccuracy < 0.7 {
		t.Errorf("the variance leak should still identify the class under CIT, class accuracy %v", cit.ClassAccuracy)
	}
}

func TestPopulationSpecValidation(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []PopulationSpec{
		{Users: 1, Recipients: 40},
		{Users: 8, Recipients: 2},
		{Users: 8, Recipients: 40, Contacts: 30},
		{Users: 8, Recipients: 40, ContactWeight: 1.5},
		{Users: 8, Recipients: 40, CoverRate: -1},
		{Users: 8, Recipients: 40, CoverRate: 1, CoverToPPS: 100},
		{Users: 8, Recipients: 40, ClassMix: []float64{1}},
		{Users: 8, Recipients: 40, ClassMix: []float64{1, 0}},
	}
	for i, spec := range bad {
		if _, err := sys.NewPopulation(spec); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, spec)
		}
	}
	if _, err := sys.NewPopulation(PopulationSpec{Users: 8, Recipients: 40}); err != nil {
		t.Errorf("default spec should validate: %v", err)
	}
}

// Class striping must honor the mix weights deterministically.
func TestPopulationClassMix(t *testing.T) {
	sys, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 40, Recipients: 40, ClassMix: []float64{3, 1}}.withDefaults()
	cum := sys.classCum(spec.ClassMix)
	counts := [2]int{}
	for u := 0; u < spec.Users; u++ {
		counts[classOf(u, spec.Users, cum)]++
	}
	if counts[0] != 30 || counts[1] != 10 {
		t.Errorf("class mix 3:1 over 40 users gave %v, want [30 10]", counts)
	}
	eng, err := sys.NewPopulation(spec)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < spec.Users; u++ {
		class, err := eng.Class(u)
		if err != nil {
			t.Fatal(err)
		}
		if class != classOf(u, spec.Users, cum) {
			t.Fatalf("engine class of user %d disagrees with striping", u)
		}
	}
}

// A configured network path and tap imperfections must flow into the
// population links (the same observation chain every protocol shares),
// not be silently ignored.
func TestFlowCorrelationHonorsNetworkPath(t *testing.T) {
	cfg := DefaultLabConfig()
	cfg.Hops = []HopSpec{{
		CapacityBps: 100e6,
		PacketBytes: 200,
		Util:        traffic.Constant(0.2),
	}}
	cfg.TapLossProb = 0.05
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := PopulationSpec{Users: 6, Recipients: 40}
	netRes, err := sys.RunFlowCorrelation(spec, FlowCorrConfig{Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewSystem(DefaultLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.RunFlowCorrelation(spec, FlowCorrConfig{Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if *netRes == *cleanRes {
		t.Error("network path and tap loss left the flow observations unchanged")
	}
}
