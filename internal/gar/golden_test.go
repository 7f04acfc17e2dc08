package gar

import (
	"math"
	"testing"

	"garfield/internal/tensor"
)

// Golden tests: small inputs whose aggregation results are computed by hand,
// pinning the exact semantics of each rule.

// TestKrumGoldenScores verifies Krum's score computation on a worked
// example: n=5, f=1, so each vector's score sums squared distances to its
// n-f-2 = 2 closest neighbours.
func TestKrumGoldenScores(t *testing.T) {
	// 1-D points: 0, 1, 2, 10, 11.
	in := vecs([]float64{0}, []float64{1}, []float64{2}, []float64{10}, []float64{11})
	dist, err := naivePairwiseSquaredDistances(in)
	if err != nil {
		t.Fatal(err)
	}
	scores := naiveKrumScores(dist, 1)
	// By hand (squared distances, two closest neighbours each):
	//   0:  d(1)=1,  d(2)=4   -> 5
	//   1:  d(0)=1,  d(2)=1   -> 2
	//   2:  d(1)=1,  d(0)=4   -> 5
	//   10: d(11)=1, d(2)=64  -> 65
	//   11: d(10)=1, d(2)=81  -> 82
	want := []float64{5, 2, 5, 65, 82}
	for i := range want {
		if math.Abs(scores[i]-want[i]) > 1e-12 {
			t.Fatalf("score[%d] = %v, want %v (all %v)", i, scores[i], want[i], scores)
		}
	}
	// Krum must select the argmin: point 1.
	k, err := NewKrum(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("Krum selected %v, want 1", out[0])
	}
}

// TestMultiKrumGoldenSelection checks Multi-Krum's m = n-f selection and
// averaging on the same worked example.
func TestMultiKrumGoldenSelection(t *testing.T) {
	in := vecs([]float64{0}, []float64{1}, []float64{2}, []float64{10}, []float64{11})
	mk, err := NewMultiKrum(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// m = 4 lowest scores: {1 (2), 0 (5), 2 (5), 10 (65)} -> mean 3.25.
	out, err := mk.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-3.25) > 1e-12 {
		t.Fatalf("MultiKrum = %v, want 3.25", out[0])
	}
	sel, err := mk.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 1 {
		t.Fatalf("best-scoring index = %d, want 1", sel[0])
	}
}

// TestMDAGoldenSubset: with n=5, f=1 the minimum-diameter 4-subset of
// {0, 1, 2, 3, 100} is {0,1,2,3}, average 1.5.
func TestMDAGoldenSubset(t *testing.T) {
	in := vecs([]float64{0}, []float64{1}, []float64{2}, []float64{3}, []float64{100})
	m, err := NewMDA(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1.5) > 1e-12 {
		t.Fatalf("MDA = %v, want 1.5", out[0])
	}
}

// TestTrimmedMeanGolden: n=5, f=1 trims the min and max per coordinate.
func TestTrimmedMeanGolden(t *testing.T) {
	in := vecs(
		[]float64{5, -100},
		[]float64{1, 2},
		[]float64{2, 3},
		[]float64{3, 4},
		[]float64{-50, 100},
	)
	tm, err := NewTrimmedMean(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tm.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate 0: sorted {-50,1,2,3,5} -> mean(1,2,3) = 2.
	// Coordinate 1: sorted {-100,2,3,4,100} -> mean(2,3,4) = 3.
	if math.Abs(out[0]-2) > 1e-12 || math.Abs(out[1]-3) > 1e-12 {
		t.Fatalf("TrimmedMean = %v, want [2 3]", out)
	}
}

// TestBulyanGoldenSmall: n=7, f=1 => k = n-2f = 5 selections, k' = k-2f = 3
// values averaged per coordinate around the median of the selected 5.
func TestBulyanGoldenSmall(t *testing.T) {
	// Six honest points near 0..5 and one far Byzantine point.
	in := vecs(
		[]float64{0}, []float64{1}, []float64{2},
		[]float64{3}, []float64{4}, []float64{5},
		[]float64{1000},
	)
	b, err := NewBulyan(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the inner selection order, the Byzantine 1000 can never
	// survive both the selection phase and the median-closest averaging.
	if out[0] < 0 || out[0] > 5 {
		t.Fatalf("Bulyan = %v, must stay within honest hull [0,5]", out[0])
	}
}

// TestPhocasGolden: n=5, f=1. Trimmed mean of {0,1,2,3,100} = mean(1,2,3)=2;
// the n-f=4 values closest to 2 are {0,1,2,3}, average 1.5.
func TestPhocasGolden(t *testing.T) {
	in := vecs([]float64{0}, []float64{1}, []float64{2}, []float64{3}, []float64{100})
	p, err := NewPhocas(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1.5) > 1e-12 {
		t.Fatalf("Phocas = %v, want 1.5", out[0])
	}
}

// TestGeoMedianGoldenTriangle: the geometric median of the vertices of an
// equilateral triangle is its centroid.
func TestGeoMedianGoldenTriangle(t *testing.T) {
	h := math.Sqrt(3) / 2
	in := vecs(
		[]float64{0, 0},
		[]float64{1, 0},
		[]float64{0.5, h},
	)
	g, err := NewGeoMedian(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 1e-3 || math.Abs(out[1]-h/3*1) > 0.05 {
		t.Fatalf("GeoMedian = %v, want ~[0.5 %.3f]", out, h/3)
	}
}

// TestMedianGoldenEvenTies: even n with duplicated middle values.
func TestMedianGoldenEvenTies(t *testing.T) {
	m, err := NewMedian(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Aggregate(vecs(
		[]float64{1}, []float64{2}, []float64{2},
		[]float64{2}, []float64{3}, []float64{9},
	))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("Median = %v, want 2", out[0])
	}
}

// --- Fast-path equivalence: Gram-kernel / scratch-arena rules vs the seed
// implementations preserved in reference_test.go ---

// attackInputs builds n d-dimensional inputs of which the last f follow the
// named Byzantine behaviour. All values are finite. Nothing upstream rejects
// a non-finite gradient (Vector.IsFinite has no non-test caller in cmd/ or
// internal/), so NaN
// and ±Inf do reach the rules: the coordinate-wise ones read NaN as +Inf
// (TestCoordinateRulesSurviveNaN), the distance-based selection rules leave
// their behaviour under NaN unspecified (TESTING.md names the gap).
func attackInputs(t *testing.T, kind string, n, f, d int, seed uint64) []tensor.Vector {
	t.Helper()
	rng := tensor.NewRNG(seed)
	in := make([]tensor.Vector, n)
	for i := range in {
		in[i] = rng.NormalVector(d, 0, 1)
	}
	switch kind {
	case "honest":
	case "huge":
		for i := n - f; i < n; i++ {
			in[i] = tensor.Filled(d, 1e9)
		}
	case "duplicate":
		// Colluding attackers submit bit-identical vectors, creating exact
		// distance ties.
		byz := rng.NormalVector(d, 5, 1)
		for i := n - f; i < n; i++ {
			in[i] = byz
		}
	case "reversed":
		// Sign-flipped copies of honest gradients.
		for i := n - f; i < n; i++ {
			in[i] = in[i-(n-f)].Scale(-4)
		}
	default:
		t.Fatalf("unknown attack kind %q", kind)
	}
	return in
}

func assertBitIdentical(t *testing.T, rule, kind string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s/%s: dim %d != %d", rule, kind, len(got), len(want))
	}
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s/%s: coordinate %d: fast %v (%x) != naive %v (%x)",
				rule, kind, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
		}
	}
}

// TestFastPathEquivalence locks the rebuilt hot path to the seed semantics:
// for every rule, odd and even n, and a set of attack input shapes, the
// arena-based Aggregate must produce bit-identical outputs to the naive seed
// implementation.
func TestFastPathEquivalence(t *testing.T) {
	const d = 257 // odd, exercises the unrolled kernels' tail paths
	kinds := []string{"honest", "huge", "duplicate", "reversed"}
	shapes := []struct{ n, f int }{{9, 2}, {12, 2}, {15, 3}, {16, 3}}
	for _, sh := range shapes {
		for _, kind := range kinds {
			n, f := sh.n, sh.f
			in := attackInputs(t, kind, n, f, d, uint64(31*n+f))

			krum, err := NewKrum(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := krum.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveKrum(f, in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "krum", kind, got, want)

			mk, err := NewMultiKrum(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err = mk.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err = naiveMultiKrum(f, n-f, in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "multikrum", kind, got, want)

			mda, err := NewMDA(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err = mda.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err = naiveMDA(n, f, in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "mda", kind, got, want)

			if n >= 4*f+3 {
				bul, err := NewBulyan(n, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err = bul.Aggregate(in)
				if err != nil {
					t.Fatal(err)
				}
				want, err = naiveBulyan(n, f, in)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "bulyan", kind, got, want)
			}

			med, err := NewMedian(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err = med.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "median", kind, got, naiveMedian(in))

			tm, err := NewTrimmedMean(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err = tm.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "trimmedmean", kind, got, naiveTrimmedMean(n, f, in))

			ph, err := NewPhocas(n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err = ph.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "phocas", kind, got, naivePhocas(n, f, in))

			avg, err := NewAverage(n)
			if err != nil {
				t.Fatal(err)
			}
			got, err = avg.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err = tensor.Mean(in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "average", kind, got, want)
		}
	}
}

// TestAggregateIntoMatchesAggregate checks the output-reuse path returns the
// same result as the allocating path and actually reuses the destination.
func TestAggregateIntoMatchesAggregate(t *testing.T) {
	const n, f, d = 9, 2, 64
	in := attackInputs(t, "honest", n, f, d, 3)
	for _, name := range Names() {
		fUse := f
		switch name {
		case NameAverage:
			fUse = 0
		case NameBulyan:
			fUse = 1 // n >= 4f+3
		}
		r, err := New(name, n, fUse)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Aggregate(in)
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.New(d)
		got, err := r.AggregateInto(dst, in)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("%s: AggregateInto did not reuse dst", name)
		}
		assertBitIdentical(t, name, "into", got, want)
	}
}

// TestAggregateSteadyStateZeroAlloc pins the tentpole property: once a rule's
// arena is warm and the caller reuses the output vector, Aggregate performs
// no allocation at all — on the calling goroutine (d = 512) and sharded over
// the pool (d = 8192, several tiles per share for the coordinate-wise rules).
func TestAggregateSteadyStateZeroAlloc(t *testing.T) {
	const n, f = 9, 2
	rules := []string{NameKrum, NameMultiKrum, NameMDA, NameBulyan, NameMedian, NameTrimmedMean, NamePhocas, NameAverage}
	for _, d := range []int{512, 8192} {
		in := attackInputs(t, "honest", n, f, d, 5)
		for _, name := range rules {
			fUse := f
			if name == NameAverage {
				fUse = 0
			}
			if name == NameBulyan {
				// n >= 4f+3: reuse the same inputs with a smaller f.
				fUse = 1
			}
			r, err := New(name, n, fUse)
			if err != nil {
				t.Fatal(err)
			}
			dst := tensor.New(d)
			// Warm up: first call may grow lazily-sized scratch.
			if _, err := r.AggregateInto(dst, in); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := r.AggregateInto(dst, in); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s d=%d: steady-state AggregateInto allocs/op = %v, want 0", name, d, allocs)
			}
		}
	}
}

// TestBulyanMedianInnerEquivalence covers the rebuilt inner-median selection
// path (arena median kernel + reused center scratch) against the seed
// formulation.
func TestBulyanMedianInnerEquivalence(t *testing.T) {
	const d = 129
	for _, sh := range []struct{ n, f int }{{11, 2}, {15, 3}, {16, 3}} {
		for _, kind := range []string{"honest", "huge", "duplicate", "reversed"} {
			in := attackInputs(t, kind, sh.n, sh.f, d, uint64(7*sh.n+sh.f))
			b, err := NewBulyanInner(sh.n, sh.f, NameMedian)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Aggregate(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveBulyanMedianInner(sh.n, sh.f, in)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "bulyan-median-inner", kind, got, want)
		}
	}
}

// TestGramCancellationGuard pins the noise-floor fallback: inputs clustered
// far from the origin make the Gram identity cancel catastrophically, and
// the kernel must fall back to direct subtract-square distances so selection
// still matches the seed exactly.
func TestGramCancellationGuard(t *testing.T) {
	const n, f, d = 9, 2, 300
	rng := tensor.NewRNG(21)
	in := make([]tensor.Vector, n)
	for i := range in {
		v := tensor.Filled(d, 1e6) // ||v||^2 ~ 3e14, pairwise d^2 ~ 1e-5
		for c := range v {
			v[c] += rng.Norm() * 1e-4
		}
		in[i] = v
	}
	krum, err := NewKrum(n, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := krum.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naiveKrum(f, in)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "krum", "offset-cluster", got, want)

	mk, err := NewMultiKrum(n, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err = mk.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err = naiveMultiKrum(f, n-f, in)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "multikrum", "offset-cluster", got, want)
}
