package main

import (
	"slices"
	"testing"
)

func TestQuietSlices(t *testing.T) {
	mk := func(steal ...float64) []*slice {
		var out []*slice
		for _, s := range steal {
			out = append(out, &slice{steal: s})
		}
		return out
	}
	steals := func(s []*slice) []float64 {
		var out []float64
		for _, x := range s {
			out = append(out, x.steal)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		in, want []float64
	}{
		{[]float64{0, 0.01, 0.02, 0, 0.005, 0.015}, []float64{0, 0, 0.005, 0.01, 0.015, 0.02}}, // all quiet
		{[]float64{0.3, 0.01, 0.2, 0, 0.02, 0.4}, []float64{0, 0.01, 0.02}},                    // a slow phase in the middle
		{[]float64{0.3, 0.2, 0.25, 0.1, 0.35, 0.4}, []float64{0.1, 0.2, 0.25}},                 // slow throughout: the least-stolen half
		{[]float64{0, 0, 0, 0, 0.2, 0.3}, []float64{0, 0, 0, 0}},
		{[]float64{0.5}, []float64{0.5}},
	} {
		if got := steals(quietSlices(mk(c.in...))); !slices.Equal(got, c.want) {
			t.Errorf("quietSlices(%v) kept steals %v, want %v", c.in, got, c.want)
		}
	}
}
