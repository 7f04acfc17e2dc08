package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be reordered
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {90, 37},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 || xs[3] != 20 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty samples must give NaN, not a number that looks measured")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestSlowdownNormalises holds the arithmetic that takes the host's speed out
// of a time.
func TestSlowdownNormalises(t *testing.T) {
	if got := slowdown(referenceNominalMs, referenceNominalMs); got != 1 {
		t.Errorf("slowdown at the nominal speed = %v, want 1", got)
	}
	if got, want := slowdown(referenceNominalMs, 2*referenceNominalMs), 1+hostShare/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown between readings of 1x and 2x nominal = %v, want %v", got, want)
	}
	st := runStats{segMs: []float64{10, 30}, slow: []float64{1, 1.5}}
	if got := st.normMs(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("normMs = %v, want [10 20]", got)
	}
	if st.segMs[1] != 30 {
		t.Errorf("normMs changed the measured values: %v", st.segMs)
	}
	if got := newReference(2).read(); !(got > 0) {
		t.Errorf("reference reading = %v ms", got)
	}
}
