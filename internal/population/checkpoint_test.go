package population

import (
	"encoding/json"
	"reflect"
	"testing"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// churnedUsers builds the deterministic test population with a private
// presence schedule per user (mean 50 ms up / 50 ms down, so a short run
// crosses many churn cycles).
func churnedUsers(t *testing.T, n int) ([]User, int) {
	t.Helper()
	users, recipients := testUsers(t, n, true)
	for u := range users {
		sched, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(9000+u)))
		if err != nil {
			t.Fatal(err)
		}
		users[u].Presence = sched
	}
	return users, recipients
}

func buildEngine(t *testing.T, n int, churn bool) *Engine {
	t.Helper()
	var (
		users      []User
		recipients int
	)
	if churn {
		users, recipients = churnedUsers(t, n)
	} else {
		users, recipients = testUsers(t, n, true)
	}
	e, err := NewEngine(users, recipients)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	return e
}

// TestChurnedRoundsOnlyOnlineSenders: every message in a round was sent
// while its sender was online — churn gates arrivals at generation.
func TestChurnedRoundsOnlyOnlineSenders(t *testing.T) {
	e := buildEngine(t, 12, true)
	// Fresh schedules from the same seeds to audit independently.
	var r Round
	total := 0
	for i := 0; i < 200; i++ {
		if err := e.NextRound(8, &r); err != nil {
			t.Fatal(err)
		}
		for j, u := range r.Users {
			check, err := traffic.NewOnOffSchedule(0.05, 0.05, xrand.New(uint64(9000+int(u))))
			if err != nil {
				t.Fatal(err)
			}
			if !check.UpAt(r.Times[j]) {
				t.Fatalf("round %d: user %d sent at %v while offline", i, u, r.Times[j])
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no messages observed")
	}
}

// TestChurnPreservesRecipientStreams: with recipient draws consumed for
// every generated arrival (present or not), the surviving messages of a
// churned population carry the same (user, arrival-index) -> recipient
// assignment as the static population — churn perturbs which messages
// exist, never how survivors draw.
func TestChurnPreservesRecipientStreams(t *testing.T) {
	type msg struct {
		t    float64
		rcpt int32
	}
	collect := func(churn bool) map[int32][]msg {
		e := buildEngine(t, 8, churn)
		var r Round
		out := make(map[int32][]msg)
		for i := 0; i < 300; i++ {
			if err := e.NextRound(8, &r); err != nil {
				t.Fatal(err)
			}
			for j, u := range r.Users {
				out[u] = append(out[u], msg{t: r.Times[j], rcpt: r.Rcpts[j]})
			}
		}
		return out
	}
	static := collect(false)
	churned := collect(true)
	matched := 0
	for u, msgs := range churned {
		// Every surviving churned message must appear in the static run
		// with the identical (time, recipient) pair: same arrival, same
		// draw, only filtered.
		si := 0
		for _, m := range msgs {
			for si < len(static[u]) && static[u][si].t < m.t {
				si++
			}
			if si >= len(static[u]) || static[u][si].t != m.t {
				// The static run's horizon may simply end earlier in round
				// count; stop matching this user at the boundary.
				break
			}
			if static[u][si].rcpt != m.rcpt {
				t.Fatalf("user %d arrival at %v drew recipient %d churned vs %d static",
					u, m.t, m.rcpt, static[u][si].rcpt)
			}
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d churned messages matched against the static run", matched)
	}
}

// TestEngineSnapshotRestore: advance, snapshot through JSON, restore on a
// twin, and demand identical continuations.
func TestEngineSnapshotRestore(t *testing.T) {
	for _, churn := range []bool{false, true} {
		orig := buildEngine(t, 10, churn)
		var r Round
		for i := 0; i < 57; i++ {
			if err := orig.NextRound(8, &r); err != nil {
				t.Fatal(err)
			}
		}
		st, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded EngineState
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		twin := buildEngine(t, 10, churn)
		if err := twin.Restore(&decoded); err != nil {
			t.Fatal(err)
		}
		if twin.Rounds() != orig.Rounds() {
			t.Fatalf("restored round counter %d, want %d", twin.Rounds(), orig.Rounds())
		}
		var ra, rb Round
		for i := 0; i < 100; i++ {
			if err := orig.NextRound(8, &ra); err != nil {
				t.Fatal(err)
			}
			if err := twin.NextRound(8, &rb); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("churn=%v: continuation diverges at round %d", churn, i)
			}
		}
	}
}

func TestEngineRestoreRejectsShapeMismatch(t *testing.T) {
	e := buildEngine(t, 10, false)
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(nil); err == nil {
		t.Error("nil snapshot restored")
	}
	small := buildEngine(t, 6, false)
	if err := small.Restore(st); err == nil {
		t.Error("snapshot restored into a differently sized population")
	}
}

// disclosureCfg is the shared config of the kill-and-resume tests: small
// enough to run fast, checkpointing often enough to resolve disclosure.
func disclosureCfg(aware bool) DisclosureConfig {
	return DisclosureConfig{
		Batch:      8,
		MaxRounds:  600,
		CheckEvery: 25,
		ChurnAware: aware,
		Workers:    1,
	}
}

// TestDisclosureKillAndResume is the resume-determinism property test:
// kill a disclosure run at randomized points (snapshot through a JSON
// round trip, discard everything, rebuild and resume), and demand the
// final result be identical to the uninterrupted run's — including a
// double-kill chain (kill, resume, kill again, resume again).
func TestDisclosureKillAndResume(t *testing.T) {
	for _, churn := range []bool{false, true} {
		cfg := disclosureCfg(churn)
		base, err := buildEngine(t, 12, churn).RunDisclosure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// At least 3 randomized kill points, seeded so failures reproduce.
		krng := xrand.New(777)
		kills := []int{1 + krng.Intn(cfg.MaxRounds-1), 1 + krng.Intn(cfg.MaxRounds-1),
			1 + krng.Intn(cfg.MaxRounds-1)}
		for _, kill := range kills {
			run, err := buildEngine(t, 12, churn).StartDisclosure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Step(kill); err != nil {
				t.Fatal(err)
			}
			st, err := run.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var decoded DisclosureState
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			resumed, err := buildEngine(t, 12, churn).ResumeDisclosure(cfg, &decoded)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Observed() != run.Observed() {
				t.Fatalf("resumed at %d observed rounds, want %d", resumed.Observed(), run.Observed())
			}
			if _, err := resumed.Step(cfg.MaxRounds); err != nil {
				t.Fatal(err)
			}
			if !resumed.Done() {
				t.Fatal("resumed run not done after a full budget of steps")
			}
			got := resumed.Result()
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("churn=%v kill=%d: resumed result differs from uninterrupted run\ngot  %+v\nwant %+v",
					churn, kill, got, base)
			}
		}
		// Double interruption: the property composes.
		run, err := buildEngine(t, 12, churn).StartDisclosure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Step(100); err != nil {
			t.Fatal(err)
		}
		st1, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		mid, err := buildEngine(t, 12, churn).ResumeDisclosure(cfg, st1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mid.Step(150); err != nil {
			t.Fatal(err)
		}
		st2, err := mid.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		final, err := buildEngine(t, 12, churn).ResumeDisclosure(cfg, st2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := final.Step(cfg.MaxRounds); err != nil {
			t.Fatal(err)
		}
		if got := final.Result(); !reflect.DeepEqual(got, base) {
			t.Fatalf("churn=%v: twice-resumed result differs from uninterrupted run", churn)
		}
	}
}

func TestResumeDisclosureValidates(t *testing.T) {
	cfg := disclosureCfg(false)
	run, err := buildEngine(t, 12, false).StartDisclosure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Step(50); err != nil {
		t.Fatal(err)
	}
	st, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, nil); err == nil {
		t.Error("nil snapshot resumed")
	}
	other := cfg
	other.Targets = []int{0, 1}
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(other, st); err == nil {
		t.Error("snapshot resumed under a different target list")
	}
	bad := *st
	bad.Targets = append([]TargetEstimatorState(nil), st.Targets...)
	if len(bad.Targets[0].SumWith.Idx) < 2 {
		t.Fatal("estimator support unexpectedly tiny; corruption test needs entries")
	}
	bad.Targets[0].SumWith.Idx = bad.Targets[0].SumWith.Idx[:len(bad.Targets[0].SumWith.Idx)-1]
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, &bad); err == nil {
		t.Error("snapshot with mismatched estimator index/value lengths resumed")
	}
	unsorted := *st
	unsorted.Targets = append([]TargetEstimatorState(nil), st.Targets...)
	uw := &unsorted.Targets[0].SumWith
	uw.Idx = append([]int32(nil), uw.Idx...)
	uw.Idx[0], uw.Idx[1] = uw.Idx[1], uw.Idx[0]
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, &unsorted); err == nil {
		t.Error("snapshot with non-ascending estimator coordinates resumed")
	}
	zero := *st
	zero.Targets = append([]TargetEstimatorState(nil), st.Targets...)
	zw := &zero.Targets[0].SumWithout
	zw.Val = append([]float64(nil), zw.Val...)
	zw.Val[0] = 0
	if _, err := buildEngine(t, 12, false).ResumeDisclosure(cfg, &zero); err == nil {
		t.Error("snapshot with an explicit zero count resumed")
	}
}
