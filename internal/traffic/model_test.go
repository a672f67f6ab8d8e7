package traffic

import (
	"math"
	"testing"

	"linkpad/internal/xrand"
)

// TestModelFirstMatchesNew: First is exactly a fresh New source's first
// Next and its Rate, for every kind, and allocates nothing.
func TestModelFirstMatchesNew(t *testing.T) {
	models := []Model{
		{Kind: ModelPoisson, Rate: 10},
		{Kind: ModelCBR, Rate: 40, Jitter: 0.1 / 40},
		{Kind: ModelCBR, Rate: 40},
		{Kind: ModelOnOff, Rate: 20, MeanOn: 0.2, MeanOff: 0.2},
	}
	for _, m := range models {
		for seed := uint64(1); seed <= 50; seed++ {
			src, err := m.New(xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			gap, rate, err := m.First(xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if want := src.Next(); math.Float64bits(gap) != math.Float64bits(want) {
				t.Fatalf("%+v seed %d: First gap %v, New's first Next %v", m, seed, gap, want)
			}
			if math.Float64bits(rate) != math.Float64bits(src.Rate()) {
				t.Fatalf("%+v: First rate %v, New's Rate %v", m, rate, src.Rate())
			}
		}
		seed := uint64(7)
		if a := testing.AllocsPerRun(100, func() {
			seed++
			if _, _, err := m.First(xrand.New(seed)); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%+v: First allocates %v times, want 0", m, a)
		}
	}
	bad := []Model{
		{Kind: ModelPoisson},
		{Kind: ModelCBR, Rate: 10, Jitter: 0.2},
		{Kind: ModelOnOff, Rate: 10, MeanOn: 0.2},
		{Kind: ModelKind(9), Rate: 10},
	}
	for _, m := range bad {
		if _, err := m.New(xrand.New(1)); err == nil {
			t.Errorf("%+v: New accepted an invalid model", m)
		}
		if _, _, err := m.First(xrand.New(1)); err == nil {
			t.Errorf("%+v: First accepted an invalid model", m)
		}
	}
}
