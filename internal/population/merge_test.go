package population

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// merge_test.go: a warm user's inline payload+cover merge against the
// traffic.Superpose it stands in for. The engine's cursor must emit the
// oracle's gaps bit for bit with the same origins — seeded random
// streams of every payload kind, users without cover, forced equal-time
// ties — and its checkpoint form must be the Superpose's, so a state
// captured from either side restores into the other and both continue
// identically.

// mergeSeedEnv overrides the fixed seed of the merge property test, so a
// failure found under another seed can be replayed.
const mergeSeedEnv = "POPULATION_MERGE_SEED"

// scripted is a deterministic source cycling through fixed gaps, used to
// force equal-time ties between the payload and the cover.
type scripted struct {
	gaps []float64
	i    int
}

func (s *scripted) Next() float64 {
	g := s.gaps[s.i%len(s.gaps)]
	s.i++
	return g
}

func (s *scripted) Rate() float64 { return 1 }

// mergePair returns a started userState over (msgs, cov) and a Superpose
// oracle over (msgs2, cov2), which must be identically seeded twins (cov
// and cov2 nil for a user without cover).
func mergePair(t *testing.T, msgs, cov, msgs2, cov2 traffic.Source) (*userState, *traffic.Superpose) {
	t.Helper()
	st := &userState{usr: User{Messages: msgs, Cover: cov}}
	rate := st.start()
	srcs := []traffic.Source{msgs2}
	if cov2 != nil {
		srcs = append(srcs, cov2)
	}
	sup, err := traffic.NewSuperpose(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rate) != math.Float64bits(sup.Rate()) {
		t.Fatalf("merge rate %v, Superpose rate %v", rate, sup.Rate())
	}
	return st, sup
}

// checkMergeMatches advances the cursor and the oracle n times and
// demands bit-identical gaps and equal origins.
func checkMergeMatches(t *testing.T, st *userState, sup *traffic.Superpose, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		gap, cover := st.advance()
		want, src := sup.NextFrom()
		if math.Float64bits(gap) != math.Float64bits(want) || cover != (src == 1) {
			t.Fatalf("%s: arrival %d: merge (%v, cover %v), Superpose (%v, source %d)",
				what, i, gap, cover, want, src)
		}
	}
}

// randomModel draws a payload model of any kind with random parameters.
func randomModel(gen *xrand.Rand) traffic.Model {
	rate := 0.5 + gen.Float64()*80
	switch gen.Intn(3) {
	case 0:
		return traffic.Model{Kind: traffic.ModelPoisson, Rate: rate}
	case 1:
		return traffic.Model{Kind: traffic.ModelCBR, Rate: rate, Jitter: gen.Float64() * 0.5 / rate}
	default:
		return traffic.Model{Kind: traffic.ModelOnOff, Rate: rate,
			MeanOn: 0.01 + gen.Float64(), MeanOff: 0.01 + gen.Float64()}
	}
}

// twins builds two identically seeded sources of model m.
func twins(t *testing.T, m traffic.Model, seed uint64) (a, b traffic.Source) {
	t.Helper()
	a, err := m.New(xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err = m.New(xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestMergeMatchesSuperposeProperty: over seeded random users — payload
// and cover of any kind and rate, a quarter without cover — the inline
// merge emits the Superpose oracle's stream bit for bit.
func TestMergeMatchesSuperposeProperty(t *testing.T) {
	seed := uint64(15)
	if s := os.Getenv(mergeSeedEnv); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", mergeSeedEnv, s, err)
		}
		seed = v
	}
	t.Logf("seed %d (override with %s)", seed, mergeSeedEnv)
	gen := xrand.New(seed)
	for trial := 0; trial < 200; trial++ {
		msgs, msgs2 := twins(t, randomModel(gen), gen.Uint64())
		var cov, cov2 traffic.Source
		if gen.Intn(4) > 0 {
			cov, cov2 = twins(t, randomModel(gen), gen.Uint64())
		}
		st, sup := mergePair(t, msgs, cov, msgs2, cov2)
		checkMergeMatches(t, st, sup, 2000, "trial "+strconv.Itoa(trial))
	}
}

// TestMergeTiesGoToPayload: when the payload and the cover arrive at the
// same instant the payload goes first and the cover follows at gap 0,
// exactly as the Superpose oracle orders them.
func TestMergeTiesGoToPayload(t *testing.T) {
	cases := []struct {
		name       string
		msgs, covr []float64
	}{
		{"every arrival tied", []float64{0.25}, []float64{0.25}},
		{"ties every other payload", []float64{0.25, 0.25}, []float64{0.5}},
		{"tie at the first arrival only", []float64{0.5, 0.125}, []float64{0.5, 3}},
		{"cover ahead then tied", []float64{0.75}, []float64{0.25, 0.5, 0.75}},
	}
	for _, tc := range cases {
		st, sup := mergePair(t,
			&scripted{gaps: tc.msgs}, &scripted{gaps: tc.covr},
			&scripted{gaps: tc.msgs}, &scripted{gaps: tc.covr})
		checkMergeMatches(t, st, sup, 500, tc.name)
	}
	// The tie rule itself, independent of the oracle.
	st := &userState{usr: User{Messages: &scripted{gaps: []float64{0.5}}, Cover: &scripted{gaps: []float64{0.5}}}}
	st.start()
	if gap, cover := st.advance(); gap != 0.5 || cover {
		t.Fatalf("tied first arrival: (%v, cover %v), want the payload at 0.5", gap, cover)
	}
	if gap, cover := st.advance(); gap != 0 || !cover {
		t.Fatalf("tied second arrival: (%v, cover %v), want the cover at gap 0", gap, cover)
	}
}

// TestWarmUserCheckpointForm: a warm user's engine snapshot is the
// "superpose" state of a Superpose over its sources. Restored into a
// real Superpose it marshals to the same JSON and continues the engine
// cursor's stream bit for bit; and a real Superpose's snapshot restored
// into an engine's warm user continues the Superpose's stream. Users
// with and without cover.
func TestWarmUserCheckpointForm(t *testing.T) {
	const n, recipients, shardSize = 40, 80, 7
	for _, cover := range []bool{true, false} {
		arrivals, build := refBuilder(t, recipients, cover, false)
		newEngine := func() *Engine {
			e, err := newLazyEngine(n, recipients, shardSize, arrivals, build)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		superpose := func(usr User) *traffic.Superpose {
			srcs := []traffic.Source{usr.Messages}
			if usr.Cover != nil {
				srcs = append(srcs, usr.Cover)
			}
			sup, err := traffic.NewSuperpose(srcs...)
			if err != nil {
				t.Fatal(err)
			}
			return sup
		}
		e := newEngine()
		var r Round
		for i := 0; i < 60; i++ {
			if err := e.NextRound(8, &r); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Warm) < 3 {
			t.Fatalf("cover=%v: only %d warm users after 60 rounds", cover, len(snap.Warm))
		}
		for _, ws := range snap.Warm[:3] {
			what := "cover=" + strconv.FormatBool(cover) + " user " + strconv.Itoa(ws.User)
			want := 1
			if cover {
				want = 2
			}
			if got := len(ws.Sup.Next); got != want {
				t.Fatalf("%s: snapshot holds %d components, want %d", what, got, want)
			}
			// Engine → Superpose.
			usr, err := build(ws.User)
			if err != nil {
				t.Fatal(err)
			}
			sup := superpose(usr)
			if err := traffic.Restore(sup, ws.Sup); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			back, err := traffic.Snapshot(sup)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(ws.Sup)
			wantJSON, _ := json.Marshal(back)
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("%s: engine form %s, Superpose form %s", what, gotJSON, wantJSON)
			}
			checkMergeMatches(t, e.warm[ws.User], sup, 500, what+" engine→Superpose")

			// Superpose → engine: a Superpose run ahead on its own, its
			// state restored into a fresh engine's warm user.
			usr, err = build(ws.User)
			if err != nil {
				t.Fatal(err)
			}
			sup = superpose(usr)
			for i := 0; i < 37; i++ {
				sup.NextFrom()
			}
			supState, err := traffic.Snapshot(sup)
			if err != nil {
				t.Fatal(err)
			}
			e2 := newEngine()
			err = e2.Restore(&EngineState{Users: n, Recipients: recipients,
				Warm: []WarmUserState{{User: ws.User, Sup: supState, NextT: ws.NextT, RNG: ws.RNG}}})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkMergeMatches(t, e2.warm[ws.User], sup, 500, what+" Superpose→engine")
		}
	}
}

// TestSourcesFrontierMatchesBuild: a Sources' frontier is what its built
// sources start with — the first gaps bit for bit and the rate summed in
// component order — for random models of every kind, with and without
// cover; a cover rate of 0 builds no cover source and leaves the zero
// Cover and HasCover, and an invalid cover rate is an error, not a
// user without cover.
func TestSourcesFrontierMatchesBuild(t *testing.T) {
	gen := xrand.New(16)
	for trial := 0; trial < 200; trial++ {
		src := Sources{Payload: randomModel(gen), PayloadSeed: gen.Uint64(), CoverSeed: gen.Uint64()}
		if gen.Intn(4) > 0 {
			src.Cover = randomModel(gen)
		}
		f, err := src.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		msgs, cov, err := src.Build()
		if err != nil {
			t.Fatal(err)
		}
		if (cov != nil) != (src.Cover.Rate != 0) {
			t.Fatalf("trial %d: cover model rate %v built cover %v", trial, src.Cover.Rate, cov)
		}
		if want := frontierOf(msgs, cov); f != want {
			t.Fatalf("trial %d: frontier %+v, built sources start with %+v", trial, f, want)
		}
	}
	for _, rate := range []float64{math.NaN(), -1} {
		src := Sources{Payload: traffic.Model{Kind: traffic.ModelPoisson, Rate: 1},
			Cover: traffic.Model{Kind: traffic.ModelPoisson, Rate: rate}}
		if _, err := src.Frontier(); err == nil {
			t.Errorf("cover rate %v: Frontier accepted it", rate)
		}
		if _, _, err := src.Build(); err == nil {
			t.Errorf("cover rate %v: Build accepted it", rate)
		}
	}
}
