package population

import (
	"errors"
	"fmt"

	"linkpad/internal/traffic"
	"linkpad/internal/xrand"
)

// Checkpoint/resume (checkpoint.go): serializable snapshots of the
// population engine and of a disclosure run in progress.
//
// The design leans on the repository's determinism discipline to keep
// snapshots small: everything that is a pure function of a stream seed —
// user classes, recipient profiles, churn schedules, slab sizing — is
// *rebuilt* from the system description on resume, never serialized.
// What a snapshot carries is only the mutable cursor state: the
// generation cursors of the users that have materialized (a cold user's
// frontier is exactly what a fresh engine's init pass recomputes, so
// cold users serialize to nothing at all), the unconsumed remainder of
// the merged event stream, and (for a disclosure run) the per-target
// estimator accumulators, stored as their non-zero coordinates. Resuming a snapshot on a freshly
// rebuilt, identically configured engine continues the run
// byte-identically to one that was never interrupted; the
// kill-and-resume tests enforce this at randomized kill points.
//
// All types marshal with encoding/json. Snapshots validate on restore —
// a snapshot from a differently shaped population (user count, recipient
// space, target list) is rejected rather than silently misapplied.

// EventState is one queued event in an engine snapshot.
type EventState struct {
	T     float64 `json:"t"`
	User  int32   `json:"user"`
	Rcpt  int32   `json:"rcpt"`
	Dummy bool    `json:"dummy,omitempty"`
}

// WarmUserState is one materialized user's generation cursor in an
// engine snapshot. Only warm users appear; everyone still cold is
// reconstructed from the builder's init pass on resume.
type WarmUserState struct {
	// User is the user's index.
	User int `json:"user"`
	// Sup is the user's merged payload+cover source state, in the form
	// traffic.Snapshot gives a Superpose over the same sources.
	Sup traffic.SourceState `json:"sup"`
	// NextT is the absolute time of the user's pending (not yet merged)
	// arrival.
	NextT float64 `json:"next_t"`
	// NextCover reports whether the pending arrival is a cover message.
	NextCover bool `json:"next_cover,omitempty"`
	// RNG is the user's recipient-draw stream state.
	RNG xrand.State `json:"rng"`
}

// EngineState is a serializable snapshot of a population engine between
// rounds.
type EngineState struct {
	// Users/Recipients pin the population shape the snapshot belongs to.
	Users      int `json:"users"`
	Recipients int `json:"recipients"`
	// SlabEnd is the generation horizon reached so far.
	SlabEnd float64 `json:"slab_end"`
	// Rounds is how many rounds the engine has emitted.
	Rounds int `json:"rounds"`
	// Queue holds the merged events generated but not yet consumed, in
	// emission order.
	Queue []EventState `json:"queue"`
	// Warm holds the materialized users' generation cursors, ascending
	// by user index.
	Warm []WarmUserState `json:"warm"`
}

// Snapshot captures the engine's mutable state. The engine is not
// consumed — a run may snapshot and keep going, which is how periodic
// checkpointing works.
func (e *Engine) Snapshot() (*EngineState, error) {
	pending := e.pendingEvents()
	st := &EngineState{
		Users:      e.n,
		Recipients: e.nrcpt,
		SlabEnd:    e.slabEnd,
		Rounds:     e.rounds,
		Queue:      make([]EventState, 0, len(pending)),
	}
	for _, ev := range pending {
		st.Queue = append(st.Queue, EventState{T: ev.t, User: ev.user, Rcpt: ev.rcpt, Dummy: ev.dummy})
	}
	for u, ws := range e.warm {
		if ws == nil {
			continue
		}
		srcs := ws.sources()
		sup, err := traffic.MergeState(srcs, ws.next[:len(srcs)], ws.now)
		if err != nil {
			return nil, fmt.Errorf("population: snapshot user %d: %w", u, err)
		}
		st.Warm = append(st.Warm, WarmUserState{
			User:      u,
			Sup:       sup,
			NextT:     e.nextT[u],
			NextCover: e.nextCover[u],
			RNG:       ws.usr.RNG.State(),
		})
	}
	return st, nil
}

// Restore applies a snapshot to a freshly built engine of the identical
// population (same system description, spec and seed — the immutable
// structure is rebuilt, not serialized). Churn schedules need no state:
// each is a pure function of its private stream, so the rebuilt
// schedule reproduces the snapshotted one exactly. Likewise every user
// absent from the snapshot's warm list was cold when it was taken, and
// the fresh engine's recomputed frontier for it already matches.
func (e *Engine) Restore(st *EngineState) error {
	if st == nil {
		return errors.New("population: nil engine snapshot")
	}
	if st.Users != e.n || st.Recipients != e.nrcpt {
		return fmt.Errorf("population: snapshot shape %d users/%d recipients, engine has %d/%d",
			st.Users, st.Recipients, e.n, e.nrcpt)
	}
	for i := range st.Warm {
		ws := &st.Warm[i]
		if ws.User < 0 || ws.User >= e.n {
			return fmt.Errorf("population: snapshot warm user %d out of range", ws.User)
		}
		if i > 0 && st.Warm[i-1].User >= ws.User {
			return fmt.Errorf("population: snapshot warm users not ascending at index %d", i)
		}
	}
	for i := range st.Warm {
		ws := &st.Warm[i]
		us, err := e.warmUp(ws.User)
		if err != nil {
			return err
		}
		srcs := us.sources()
		now, err := traffic.RestoreMerge(srcs, us.next[:len(srcs)], ws.Sup)
		if err != nil {
			return fmt.Errorf("population: restore user %d: %w", ws.User, err)
		}
		us.now = now
		us.usr.RNG.SetState(ws.RNG)
		e.nextT[ws.User] = ws.NextT
		e.nextCover[ws.User] = ws.NextCover
	}
	e.slabEnd = st.SlabEnd
	e.rounds = st.Rounds
	for i := range e.shards {
		e.shards[i].buf = e.shards[i].buf[:0]
		e.shards[i].pos = 0
	}
	e.heap = e.heap[:0]
	e.restored = make([]event, 0, len(st.Queue))
	for _, ev := range st.Queue {
		e.restored = append(e.restored, event{t: ev.T, user: ev.User, rcpt: ev.Rcpt, dummy: ev.Dummy})
	}
	e.ri = 0
	if len(e.restored) == 0 {
		e.restored = nil
	}
	return nil
}

// SparseCounts is one sparse accumulator in a disclosure snapshot:
// parallel coordinate/count slices with Idx strictly ascending.
type SparseCounts struct {
	Idx []int32   `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
}

// validate checks a serialized sparse accumulator's invariants against
// the recipient space.
func (s *SparseCounts) validate(what string, nrcpt int) error {
	if len(s.Idx) != len(s.Val) {
		return fmt.Errorf("population: snapshot %s has %d indices for %d values",
			what, len(s.Idx), len(s.Val))
	}
	for i, ix := range s.Idx {
		if ix < 0 || int(ix) >= nrcpt {
			return fmt.Errorf("population: snapshot %s coordinate %d out of range [0,%d)", what, ix, nrcpt)
		}
		if i > 0 && s.Idx[i-1] >= ix {
			return fmt.Errorf("population: snapshot %s coordinates not ascending at index %d", what, i)
		}
	}
	return nil
}

// LSEstimatorState is the least-squares estimator's accumulators in a
// disclosure snapshot: the three scalar regressor moments and the two
// sparse right-hand sides.
type LSEstimatorState struct {
	Saa float64      `json:"saa"`
	Sab float64      `json:"sab"`
	Sbb float64      `json:"sbb"`
	Say SparseCounts `json:"say"`
	Sby SparseCounts `json:"sby"`
}

// MLGroupState is one (a, n) group of the ML estimator's sufficient
// statistics: c observed rounds in which the target sent a of the n
// messages, with their summed egress counts.
type MLGroupState struct {
	A int32        `json:"a"`
	N int32        `json:"n"`
	C float64      `json:"c"`
	Y SparseCounts `json:"y"`
}

// MLEstimatorState is the ML estimator's grouped sufficient statistics
// in a disclosure snapshot, ascending by (a, n). The EM estimate itself
// is never serialized — it is recomputed from the groups on resume,
// which is what keeps a resumed run byte-identical.
type MLEstimatorState struct {
	Groups []MLGroupState `json:"groups,omitempty"`
}

// MixPolicyState is a mix policy's mutable state in a disclosure
// snapshot. The threshold mix has none; the pool mix carries its pooled
// events and retention stream; the timed mix carries its grid cursor
// and one-event lookahead. Fields of the other policies must be absent
// — restore rejects a state that mixes them.
type MixPolicyState struct {
	// Pool holds the pool mix's retained events in arrival order.
	Pool []EventState `json:"pool,omitempty"`
	// RNG is the pool mix's retention stream state.
	RNG *xrand.State `json:"rng,omitempty"`
	// NextFlush is the timed mix's next grid boundary (0 = unstarted).
	NextFlush float64 `json:"next_flush,omitempty"`
	// Peeked is the timed mix's one-event lookahead, if one is held.
	Peeked *EventState `json:"peeked,omitempty"`
}

// TargetEstimatorState is one target's estimator accumulators in a
// disclosure snapshot. SumWith/SumWithout/NWith/NWithout carry the
// classic estimator (and NWith/NWithout the round counts of the
// others); LS and ML carry the respective variants' extra accumulators
// and are absent otherwise.
type TargetEstimatorState struct {
	User       int32             `json:"user"`
	SumWith    SparseCounts      `json:"sum_with"`
	SumWithout SparseCounts      `json:"sum_without"`
	NWith      int               `json:"n_with"`
	NWithout   int               `json:"n_without"`
	LS         *LSEstimatorState `json:"ls,omitempty"`
	ML         *MLEstimatorState `json:"ml,omitempty"`
	RoundsWith int               `json:"rounds_with"`
	Masked     int               `json:"masked,omitempty"`
	Streak     int               `json:"streak,omitempty"`
	Disclosed  bool              `json:"disclosed,omitempty"`
	Rounds     int               `json:"rounds,omitempty"`
	// Dummies is the adaptive dummy policy's rotation cursor.
	Dummies int `json:"dummies,omitempty"`
}

// DisclosureState is a serializable snapshot of a disclosure run in
// progress: the engine state, the mix policy's state, and every
// target's estimator. Mix/Estimator/Dummies pin the configuration the
// snapshot was taken under — ResumeDisclosure rejects a resuming config
// that differs, rather than silently mixing accumulators from one
// attack into another. All three are absent for the default
// threshold/classic/none run, so pre-arms-race snapshots decode to
// exactly the configuration they were taken under.
type DisclosureState struct {
	Observed  int                    `json:"observed"`
	Done      bool                   `json:"done,omitempty"`
	Mix       *MixSpec               `json:"mix,omitempty"`
	Estimator EstimatorKind          `json:"estimator,omitempty"`
	Dummies   DummyPolicy            `json:"dummies,omitempty"`
	MixState  *MixPolicyState        `json:"mix_state,omitempty"`
	Engine    EngineState            `json:"engine"`
	Targets   []TargetEstimatorState `json:"targets"`
}

// Snapshot captures the run's full mutable state; the run keeps going.
func (run *DisclosureRun) Snapshot() (*DisclosureState, error) {
	eng, err := run.d.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	cfg := &run.d.cfg
	st := &DisclosureState{
		Observed:  run.observed,
		Done:      run.done,
		Estimator: cfg.Estimator,
		Dummies:   cfg.Dummies,
		MixState:  run.d.mix.snapshot(),
		Engine:    *eng,
		Targets:   make([]TargetEstimatorState, len(run.d.targets)),
	}
	if cfg.Mix.Kind != MixThreshold {
		mix := cfg.Mix // defaults-applied by StartDisclosure
		st.Mix = &mix
	}
	for i := range run.d.targets {
		t := &run.d.targets[i]
		ts := &st.Targets[i]
		ts.User = t.user
		t.est.snapshot(ts)
		ts.RoundsWith = t.roundsWith
		ts.Masked = t.masked
		ts.Streak = t.streak
		ts.Disclosed = t.disclosed
		ts.Rounds = t.rounds
		ts.Dummies = t.dumCount
	}
	return st, nil
}

// ResumeDisclosure continues a snapshotted disclosure run on a freshly
// built engine of the identical population, under the identical config.
// The snapshot records the mix/estimator/dummy configuration it was
// taken under, and a resuming config that disagrees is rejected with a
// clear error — the accumulators of one attack mean nothing to another.
// Stepping the resumed run to completion yields byte-identical results
// to the uninterrupted run.
func (e *Engine) ResumeDisclosure(cfg DisclosureConfig, st *DisclosureState) (*DisclosureRun, error) {
	if st == nil {
		return nil, errors.New("population: nil disclosure snapshot")
	}
	run, err := e.StartDisclosure(cfg)
	if err != nil {
		return nil, err
	}
	rcfg := &run.d.cfg // defaults-applied
	var snapMix MixSpec
	if st.Mix != nil {
		snapMix = *st.Mix
	}
	snapMix = snapMix.withDefaults()
	if snapMix.Kind != rcfg.Mix.Kind {
		return nil, fmt.Errorf("population: snapshot was taken under a %s mix, config selects %s",
			snapMix.Kind, rcfg.Mix.Kind)
	}
	if snapMix != rcfg.Mix {
		return nil, fmt.Errorf("population: snapshot %s mix parameters %+v differ from the resuming config's %+v",
			snapMix.Kind, snapMix, rcfg.Mix)
	}
	if st.Estimator != rcfg.Estimator {
		return nil, fmt.Errorf("population: snapshot was taken with the %s estimator, config selects %s",
			st.Estimator, rcfg.Estimator)
	}
	if st.Dummies != rcfg.Dummies {
		return nil, fmt.Errorf("population: snapshot was taken under the %s dummy policy, config selects %s",
			st.Dummies, rcfg.Dummies)
	}
	if len(st.Targets) != len(run.d.targets) {
		return nil, fmt.Errorf("population: snapshot has %d targets, config selects %d",
			len(st.Targets), len(run.d.targets))
	}
	if err := e.Restore(&st.Engine); err != nil {
		return nil, err
	}
	if err := run.d.mix.restore(st.MixState); err != nil {
		return nil, err
	}
	for i := range run.d.targets {
		t := &run.d.targets[i]
		ts := &st.Targets[i]
		if ts.User != t.user {
			return nil, fmt.Errorf("population: snapshot target %d is user %d, config selects user %d",
				i, ts.User, t.user)
		}
		if err := t.est.restore(ts, e.nrcpt); err != nil {
			return nil, err
		}
		t.roundsWith = ts.RoundsWith
		t.masked = ts.Masked
		t.streak = ts.Streak
		t.disclosed = ts.Disclosed
		t.rounds = ts.Rounds
		t.dumCount = ts.Dummies
	}
	run.observed = st.Observed
	run.done = st.Done
	return run, nil
}
