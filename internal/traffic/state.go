package traffic

import (
	"errors"
	"fmt"

	"linkpad/internal/xrand"
)

// Source state capture (state.go): the checkpoint/resume layer needs to
// freeze a running arrival process and later continue it bit-for-bit.
// Every built-in Source has O(1) mutable state — its RNG position plus a
// few scalars — so a snapshot is a small serializable record, and
// restoring it into a freshly built source of the same parameters resumes
// the exact realization. The (parameters, rng-seed) themselves are NOT
// captured: the caller rebuilds the source from its deterministic
// (seed, class, id) stream derivation and then applies the state, which
// is the repository's "per-stream position" resume contract.

// SourceState is the serializable mutable state of a Source. Kind guards
// against restoring a state into a source of a different type; optional
// fields are present only for the kinds that carry them.
type SourceState struct {
	Kind string       `json:"kind"`
	RNG  *xrand.State `json:"rng,omitempty"`
	// OnOff: burst phase and remaining holding time.
	On   *bool    `json:"on,omitempty"`
	Left *float64 `json:"left,omitempty"`
	// Train: whether the source is mid-train.
	InTrain *bool `json:"in_train,omitempty"`
	// Superpose: per-component absolute next-arrival times and the merge
	// clock, plus the component states.
	Next []float64     `json:"next,omitempty"`
	Now  *float64      `json:"now,omitempty"`
	Sub  []SourceState `json:"sub,omitempty"`
	// Gated: generation clock and last surviving arrival.
	GateNow  *float64 `json:"gate_now,omitempty"`
	LastEmit *float64 `json:"last_emit,omitempty"`
}

// Snapshot captures the mutable state of a built-in Source. It errors on
// source types it does not know how to freeze.
func Snapshot(s Source) (SourceState, error) {
	switch src := s.(type) {
	case *Poisson:
		st := src.rng.State()
		return SourceState{Kind: "poisson", RNG: &st}, nil
	case *CBR:
		out := SourceState{Kind: "cbr"}
		if src.rng != nil {
			st := src.rng.State()
			out.RNG = &st
		}
		return out, nil
	case *OnOff:
		st := src.rng.State()
		on, left := src.on, src.stateLeft
		return SourceState{Kind: "onoff", RNG: &st, On: &on, Left: &left}, nil
	case *Train:
		st := src.rng.State()
		in := src.inTrain
		return SourceState{Kind: "train", RNG: &st, InTrain: &in}, nil
	case *Superpose:
		return MergeState(src.srcs, src.next, src.now)
	case *Gated:
		now, last := src.now, src.lastEmit
		sub, err := Snapshot(src.src)
		if err != nil {
			return SourceState{}, fmt.Errorf("traffic: gated source: %w", err)
		}
		return SourceState{Kind: "gated", GateNow: &now, LastEmit: &last, Sub: []SourceState{sub}}, nil
	default:
		return SourceState{}, fmt.Errorf("traffic: cannot snapshot source type %T", s)
	}
}

// Restore applies a previously captured state to a freshly built source
// of the same kind and parameters. It validates the state's shape but
// cannot verify the parameters match — that is the caller's deterministic
// rebuild contract.
func Restore(s Source, st SourceState) error {
	switch src := s.(type) {
	case *Poisson:
		if st.Kind != "poisson" || st.RNG == nil {
			return fmt.Errorf("traffic: state %q does not fit a Poisson source", st.Kind)
		}
		src.rng.SetState(*st.RNG)
		return nil
	case *CBR:
		if st.Kind != "cbr" {
			return fmt.Errorf("traffic: state %q does not fit a CBR source", st.Kind)
		}
		if src.rng != nil {
			if st.RNG == nil {
				return errors.New("traffic: CBR state missing rng for a jittered source")
			}
			src.rng.SetState(*st.RNG)
		}
		return nil
	case *OnOff:
		if st.Kind != "onoff" || st.RNG == nil || st.On == nil || st.Left == nil {
			return fmt.Errorf("traffic: state %q does not fit an OnOff source", st.Kind)
		}
		if *st.Left < 0 {
			return errors.New("traffic: OnOff state has negative holding time")
		}
		src.rng.SetState(*st.RNG)
		src.on = *st.On
		src.stateLeft = *st.Left
		return nil
	case *Train:
		if st.Kind != "train" || st.RNG == nil || st.InTrain == nil {
			return fmt.Errorf("traffic: state %q does not fit a Train source", st.Kind)
		}
		src.rng.SetState(*st.RNG)
		src.inTrain = *st.InTrain
		return nil
	case *Superpose:
		now, err := RestoreMerge(src.srcs, src.next, st)
		if err != nil {
			return err
		}
		src.now = now
		// The restored component times invalidate the merge heap's order.
		src.buildHeap()
		return nil
	case *Gated:
		if st.Kind != "gated" || st.GateNow == nil || st.LastEmit == nil || len(st.Sub) != 1 {
			return fmt.Errorf("traffic: state %q does not fit a Gated source", st.Kind)
		}
		if err := Restore(src.src, st.Sub[0]); err != nil {
			return fmt.Errorf("traffic: gated source: %w", err)
		}
		src.now = *st.GateNow
		src.lastEmit = *st.LastEmit
		return nil
	default:
		return fmt.Errorf("traffic: cannot restore source type %T", s)
	}
}

// MergeState captures a time-ordered merge of srcs in the "superpose"
// form Snapshot emits for a *Superpose: next holds each component's
// absolute next-arrival time and now is the merge clock. A caller that
// runs the Superpose merge inline (the population engine) snapshots
// through it, so its checkpoints stay interchangeable with a Superpose's.
func MergeState(srcs []Source, next []float64, now float64) (SourceState, error) {
	out := SourceState{
		Kind: "superpose",
		Next: append([]float64(nil), next...),
		Now:  &now,
		Sub:  make([]SourceState, len(srcs)),
	}
	for i, sub := range srcs {
		st, err := Snapshot(sub)
		if err != nil {
			return SourceState{}, fmt.Errorf("traffic: superpose component %d: %w", i, err)
		}
		out.Sub[i] = st
	}
	return out, nil
}

// RestoreMerge applies a "superpose" state to an inline merge of srcs:
// it restores every component, copies the per-component next-arrival
// times into next (one per source) and returns the merge clock.
func RestoreMerge(srcs []Source, next []float64, st SourceState) (now float64, err error) {
	if st.Kind != "superpose" || st.Now == nil {
		return 0, fmt.Errorf("traffic: state %q does not fit a Superpose source", st.Kind)
	}
	if len(st.Next) != len(srcs) || len(st.Sub) != len(srcs) {
		return 0, fmt.Errorf("traffic: superpose state spans %d/%d components, source has %d",
			len(st.Next), len(st.Sub), len(srcs))
	}
	for i, sub := range srcs {
		if err := Restore(sub, st.Sub[i]); err != nil {
			return 0, fmt.Errorf("traffic: superpose component %d: %w", i, err)
		}
	}
	copy(next, st.Next)
	return *st.Now, nil
}
