package traffic

import (
	"fmt"

	"linkpad/internal/xrand"
)

// ModelKind names the arrival process a Model describes.
type ModelKind int

const (
	// ModelPoisson is a Poisson process at Rate.
	ModelPoisson ModelKind = iota
	// ModelCBR is a CBR process at Rate with Jitter.
	ModelCBR
	// ModelOnOff is an on-off process peaking at Rate with MeanOn and
	// MeanOff holding times.
	ModelOnOff
)

// Model describes a payload arrival process by kind and parameters, so
// one definition of a process can both build a Source (New) and read a
// fresh source's first arrival without allocating (First) — what a
// million-user population needs to set up users that have not sent yet.
type Model struct {
	Kind ModelKind
	// Rate is the Poisson and CBR rate, and the OnOff peak rate.
	Rate float64
	// Jitter is the CBR jitter half-range.
	Jitter float64
	// MeanOn and MeanOff are the OnOff holding-time means.
	MeanOn, MeanOff float64
}

// New builds the model's source on rng.
func (m Model) New(rng *xrand.Rand) (Source, error) {
	switch m.Kind {
	case ModelPoisson:
		return NewPoisson(m.Rate, rng)
	case ModelCBR:
		return NewCBR(m.Rate, m.Jitter, rng)
	case ModelOnOff:
		return NewOnOff(m.Rate, m.MeanOn, m.MeanOff, rng)
	default:
		return nil, fmt.Errorf("traffic: unknown model kind %d", int(m.Kind))
	}
}

// First returns what New(rng) followed by one Next and Rate would: the
// first gap of a fresh source on rng and its long-run rate. The source
// lives on the stack, so First allocates nothing (rng need not escape
// either).
func (m Model) First(rng *xrand.Rand) (gap, rate float64, err error) {
	switch m.Kind {
	case ModelPoisson:
		p, err := makePoisson(m.Rate, rng)
		if err != nil {
			return 0, 0, err
		}
		return p.Next(), p.Rate(), nil
	case ModelCBR:
		c, err := makeCBR(m.Rate, m.Jitter, rng)
		if err != nil {
			return 0, 0, err
		}
		return c.Next(), c.Rate(), nil
	case ModelOnOff:
		o, err := makeOnOff(m.Rate, m.MeanOn, m.MeanOff, rng)
		if err != nil {
			return 0, 0, err
		}
		return o.Next(), o.Rate(), nil
	default:
		return 0, 0, fmt.Errorf("traffic: unknown model kind %d", int(m.Kind))
	}
}
