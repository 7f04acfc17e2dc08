package gar

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"garfield/internal/tensor"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func vecs(rows ...[]float64) []tensor.Vector {
	out := make([]tensor.Vector, len(rows))
	for i, r := range rows {
		out[i] = tensor.Vector(r)
	}
	return out
}

func TestNewByName(t *testing.T) {
	tests := []struct {
		name string
		n, f int
	}{
		{NameAverage, 5, 0},
		{NameMedian, 7, 3},
		{NameTrimmedMean, 7, 3},
		{NameKrum, 9, 3},
		{NameMultiKrum, 9, 3},
		{NameMDA, 7, 3},
		{NameBulyan, 15, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := New(tt.name, tt.n, tt.f)
			if err != nil {
				t.Fatal(err)
			}
			if r.Name() != tt.name {
				t.Fatalf("Name = %q, want %q", r.Name(), tt.name)
			}
			if r.N() != tt.n {
				t.Fatalf("N = %d, want %d", r.N(), tt.n)
			}
		})
	}
}

func TestNewUnknownRule(t *testing.T) {
	if _, err := New("nonsense", 5, 1); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("err = %v, want ErrUnknownRule", err)
	}
}

func TestRequirementViolations(t *testing.T) {
	tests := []struct {
		name string
		n, f int
	}{
		{NameMedian, 6, 3},      // needs 7
		{NameTrimmedMean, 4, 2}, // needs 5
		{NameKrum, 8, 3},        // needs 9
		{NameMultiKrum, 8, 3},   // needs 9
		{NameMDA, 6, 3},         // needs 7
		{NameBulyan, 14, 3},     // needs 15
		{NameMedian, 5, -1},     // negative f
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.name, tt.n, tt.f); !errors.Is(err, ErrRequirement) {
				t.Fatalf("New(%s, %d, %d) err = %v, want ErrRequirement", tt.name, tt.n, tt.f, err)
			}
		})
	}
}

func TestMinN(t *testing.T) {
	tests := []struct {
		name string
		f    int
		want int
	}{
		{NameAverage, 3, 1},
		{NameMedian, 3, 7},
		{NameMDA, 3, 7},
		{NameTrimmedMean, 3, 7},
		{NameKrum, 3, 9},
		{NameMultiKrum, 3, 9},
		{NameBulyan, 3, 15},
	}
	for _, tt := range tests {
		got, err := MinN(tt.name, tt.f)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Fatalf("MinN(%s, %d) = %d, want %d", tt.name, tt.f, got, tt.want)
		}
	}
	if _, err := MinN("bogus", 1); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("MinN bogus err = %v", err)
	}
}

func TestInputCountValidation(t *testing.T) {
	for _, name := range Names() {
		n, _ := MinN(name, 1)
		if n < 3 {
			n = 3
		}
		r, err := New(name, n, boundF(name))
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		in := make([]tensor.Vector, n-1)
		for i := range in {
			in[i] = tensor.Vector{1, 2}
		}
		if _, err := r.Aggregate(in); !errors.Is(err, ErrInputCount) {
			t.Fatalf("%s: err = %v, want ErrInputCount", name, err)
		}
	}
}

// boundF picks an f valid for the rule at small n used in tests.
func boundF(name string) int {
	if name == NameAverage {
		return 0
	}
	return 0
}

func TestAverage(t *testing.T) {
	a, err := NewAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Aggregate(vecs([]float64{1, 2}, []float64{3, 4}, []float64{5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 3) || !almostEqual(out[1], 4) {
		t.Fatalf("Average = %v", out)
	}
}

func TestMedianOdd(t *testing.T) {
	m, err := NewMedian(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Aggregate(vecs(
		[]float64{1, 100},
		[]float64{2, -100},
		[]float64{3, 0},
		[]float64{4, 1},
		[]float64{5, -1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 0 {
		t.Fatalf("Median = %v, want [3 0]", out)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := NewMedian(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Aggregate(vecs([]float64{1}, []float64{2}, []float64{3}, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 2.5) {
		t.Fatalf("even Median = %v, want 2.5", out[0])
	}
}

func TestMedianResistsOutlier(t *testing.T) {
	m, err := NewMedian(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three honest gradients near 1.0, two Byzantine at 1e9.
	out, err := m.Aggregate(vecs(
		[]float64{0.9}, []float64{1.0}, []float64{1.1},
		[]float64{1e9}, []float64{1e9},
	))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] < 0.9 || out[0] > 1.1 {
		t.Fatalf("Median hijacked by outliers: %v", out[0])
	}
}

func TestKrumPicksHonestCluster(t *testing.T) {
	k, err := NewKrum(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := vecs(
		[]float64{1.0, 1.0}, []float64{1.1, 0.9}, []float64{0.9, 1.1},
		[]float64{1.05, 1.0}, []float64{1.0, 0.95}, []float64{0.95, 1.05},
		[]float64{100, -100}, []float64{-100, 100}, []float64{500, 500},
	)
	out, err := k.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] < 0.5 || out[0] > 1.5 || out[1] < 0.5 || out[1] > 1.5 {
		t.Fatalf("Krum selected a Byzantine vector: %v", out)
	}
}

func TestKrumReturnsOneOfTheInputs(t *testing.T) {
	k, err := NewKrum(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	in := make([]tensor.Vector, 9)
	for i := range in {
		in[i] = rng.NormalVector(5, 0, 1)
	}
	out, err := k.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range in {
		same := true
		for i := range v {
			if v[i] != out[i] {
				same = false
				break
			}
		}
		if same {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("Krum output is not one of the inputs")
	}
}

func TestKrumOutputIsCopy(t *testing.T) {
	k, err := NewKrum(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	in := make([]tensor.Vector, 9)
	for i := range in {
		in[i] = rng.NormalVector(3, 0, 1)
	}
	out, err := k.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	orig := out.Clone()
	for _, v := range in {
		v[0] = 1e18
	}
	if out[0] != orig[0] {
		t.Fatal("Krum output aliases an input vector")
	}
}

func TestMultiKrumAveragesSelection(t *testing.T) {
	mk, err := NewMultiKrum(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mk.M() != 6 {
		t.Fatalf("M = %d, want 6", mk.M())
	}
	in := vecs(
		[]float64{1}, []float64{1}, []float64{1},
		[]float64{1}, []float64{1}, []float64{1},
		[]float64{1000}, []float64{-1000}, []float64{999},
	)
	out, err := mk.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 1) {
		t.Fatalf("MultiKrum = %v, want 1", out[0])
	}
}

func TestMultiKrumMBounds(t *testing.T) {
	if _, err := NewMultiKrumM(9, 3, 0); !errors.Is(err, ErrRequirement) {
		t.Fatalf("m=0 err = %v", err)
	}
	if _, err := NewMultiKrumM(9, 3, 7); !errors.Is(err, ErrRequirement) {
		t.Fatalf("m>n-f err = %v", err)
	}
	mk, err := NewMultiKrumM(9, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mk.M() != 1 {
		t.Fatalf("M = %d, want 1", mk.M())
	}
}

func TestMDASelectsTightestSubset(t *testing.T) {
	m, err := NewMDA(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Honest cluster around 2.0, Byzantine at extremes.
	in := vecs(
		[]float64{1.9}, []float64{2.0}, []float64{2.1},
		[]float64{50}, []float64{-50},
	)
	out, err := m.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 2.0) {
		t.Fatalf("MDA = %v, want 2.0", out[0])
	}
}

func TestMDAZeroFIsAverage(t *testing.T) {
	m, err := NewMDA(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Aggregate(vecs([]float64{1}, []float64{2}, []float64{3}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 2) {
		t.Fatalf("MDA f=0 = %v, want 2", out[0])
	}
}

func TestBulyanResistsCoordinateAttack(t *testing.T) {
	b, err := NewBulyan(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(21)
	in := make([]tensor.Vector, 15)
	for i := 0; i < 12; i++ {
		in[i] = rng.NormalVector(10, 1.0, 0.1)
	}
	// Byzantine vectors try the "hidden" high-dimensional attack: agree on
	// most coordinates but blow up one coordinate.
	for i := 12; i < 15; i++ {
		v := rng.NormalVector(10, 1.0, 0.1)
		v[7] = 1e6
		in[i] = v
	}
	out, err := b.Aggregate(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[7] < 0 || out[7] > 2 {
		t.Fatalf("Bulyan coordinate 7 hijacked: %v", out[7])
	}
}

func TestBulyanInnerMedian(t *testing.T) {
	b, err := NewBulyanInner(15, 3, NameMedian)
	if err != nil {
		t.Fatal(err)
	}
	if b.Inner() != NameMedian {
		t.Fatalf("Inner = %q", b.Inner())
	}
	rng := tensor.NewRNG(2)
	in := make([]tensor.Vector, 15)
	for i := range in {
		in[i] = rng.NormalVector(4, 0, 1)
	}
	if _, err := b.Aggregate(in); err != nil {
		t.Fatal(err)
	}
}

func TestBulyanInvalidInner(t *testing.T) {
	if _, err := NewBulyanInner(15, 3, "average"); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("err = %v, want ErrUnknownRule", err)
	}
}

func TestTrimmedMean(t *testing.T) {
	tm, err := NewTrimmedMean(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tm.Aggregate(vecs(
		[]float64{-1000}, []float64{1}, []float64{2}, []float64{3}, []float64{1000},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 2) {
		t.Fatalf("TrimmedMean = %v, want 2", out[0])
	}
}

func TestDimensionMismatchAcrossInputs(t *testing.T) {
	m, err := NewMedian(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Aggregate(vecs([]float64{1, 2}, []float64{1}, []float64{1, 2}))
	if !errors.Is(err, tensor.ErrDimensionMismatch) {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
}

func TestDeltaFactors(t *testing.T) {
	// Spot-check against the closed forms in Section 3.1.
	d, err := DeltaFactor(NameMDA, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 2*math.Sqrt2*2/8) {
		t.Fatalf("MDA delta = %v", d)
	}
	d, err = DeltaFactor(NameMedian, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, math.Sqrt(8)) {
		t.Fatalf("Median delta = %v", d)
	}
	d, err = DeltaFactor(NameKrum, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * (8 + (2*6+4*7)/4.0))
	if !almostEqual(d, want) {
		t.Fatalf("Krum delta = %v, want %v", d, want)
	}
	if _, err := DeltaFactor(NameBulyan, 15, 3); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("Bulyan delta err = %v", err)
	}
	if _, err := DeltaFactor(NameKrum, 6, 2); !errors.Is(err, ErrRequirement) {
		t.Fatalf("Krum small-n delta err = %v", err)
	}
}

func TestCheckVarianceCondition(t *testing.T) {
	rng := tensor.NewRNG(31)
	trueGrad := tensor.Filled(20, 5.0) // strong signal
	grads := make([]tensor.Vector, 10)
	for i := range grads {
		g := trueGrad.Clone()
		noise := rng.NormalVector(20, 0, 0.01) // tiny variance
		if err := g.AddInPlace(noise); err != nil {
			t.Fatal(err)
		}
		grads[i] = g
	}
	rep, err := CheckVarianceCondition(NameMedian, 2, grads, trueGrad)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied {
		t.Fatalf("low-variance condition should hold: %+v", rep)
	}
	// Now enormous variance: condition must fail.
	for i := range grads {
		grads[i] = rng.NormalVector(20, 0, 1000)
	}
	rep, err = CheckVarianceCondition(NameMedian, 2, grads, trueGrad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfied {
		t.Fatalf("high-variance condition should fail: %+v", rep)
	}
}

func TestCheckVarianceConditionEmpty(t *testing.T) {
	if _, err := CheckVarianceCondition(NameMedian, 0, nil, tensor.Vector{1}); !errors.Is(err, tensor.ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestForEachCombinationCount(t *testing.T) {
	count := 0
	buf := make([]int, 3)
	forEachCombination(6, 3, buf, func(s []int) { count++ })
	if count != 20 { // C(6,3)
		t.Fatalf("combinations = %d, want 20", count)
	}
}

func TestQuickselect(t *testing.T) {
	rng := tensor.NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		k := rng.Intn(n)
		sorted := append([]float64(nil), xs...)
		insertionSort(sorted)
		got := quickselect(append([]float64(nil), xs...), k)
		if got != sorted[k] {
			t.Fatalf("quickselect(n=%d, k=%d) = %v, want %v", n, k, got, sorted[k])
		}
	}
}

// TestParallelForDeterministicPartition checks the pool executor covers
// [0, total) exactly once per index for any worker count, writing through
// disjoint slots.
func TestParallelForDeterministicPartition(t *testing.T) {
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, total := range []int{1, 2, 16, 100, 1023} {
			hits := make([]int32, total)
			parallelFor(total, workers, &wg, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d total=%d: index %d visited %d times", workers, total, i, h)
				}
			}
		}
	}
}

// TestDotKernelAgainstGeneric cross-checks the dispatching kernel (assembly
// when available) against the portable kernel within floating-point
// tolerance, including tail lengths.
func TestDotKernelAgainstGeneric(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, n := range []int{0, 1, 3, 4, 15, 16, 17, 64, 1000, 4097} {
		a := rng.NormalVector(n, 0, 1)
		b := rng.NormalVector(n, 0, 1)
		got := dotKernel(a, b)
		want := dotGeneric(a, b)
		scale := 1.0
		for i := range a {
			scale += math.Abs(a[i] * b[i])
		}
		if math.Abs(got-want) > 1e-12*scale {
			t.Fatalf("n=%d: dotKernel = %v, dotGeneric = %v", n, got, want)
		}
	}
}

// TestSumSmallestKMatchesSort pins the introselect smallest-k sum to the
// sort-based formulation bit for bit.
func TestSumSmallestKMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.Norm()*4) / 4 // provoke ties
		}
		k := 1 + rng.Intn(n)
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		var want float64
		for _, x := range ref[:k] {
			want += x
		}
		got := sumSmallestK(append([]float64(nil), xs...), k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d k=%d: sumSmallestK = %v, want %v", n, k, got, want)
		}
	}
}

// TestSelectionRulesSurviveNonFinite: a non-finite vector is the cheapest
// input a Byzantine worker can author. With at most f inputs all-NaN, all
// +Inf, all -Inf or a mix, at every position in the input order, the
// distance-based rules still return a finite vector: a NaN entry of the
// distance matrix reads as +Inf, so such an input ranks last in every score
// and every subset that holds it has infinite diameter.
func TestSelectionRulesSurviveNonFinite(t *testing.T) {
	poison := map[string]func(i, c int) float64{
		"nan":   func(i, c int) float64 { return math.NaN() },
		"+inf":  func(i, c int) float64 { return math.Inf(1) },
		"-inf":  func(i, c int) float64 { return math.Inf(-1) },
		"mixed": func(i, c int) float64 { return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[(i+c)%3] },
	}
	for _, sh := range []struct {
		rule string
		n, f int
	}{
		{NameKrum, 7, 2}, {NameKrum, 11, 2},
		{NameMultiKrum, 7, 2}, {NameMultiKrum, 11, 2},
		{NameMDA, 5, 2}, {NameMDA, 11, 2},
		{NameBulyan, 11, 2}, {NameBulyan, 15, 3},
	} {
		r, err := New(sh.rule, sh.n, sh.f)
		if err != nil {
			t.Fatal(err)
		}
		for kind, value := range poison {
			for _, byz := range []int{1, sh.f} {
				for start := 0; start < sh.n; start++ {
					in := genInputs(uint64(sh.n), sh.n, 40)
					for j := 0; j < byz; j++ {
						i := (start + j) % sh.n
						for c := range in[i] {
							in[i][c] = value(i, c)
						}
					}
					out, err := r.Aggregate(in)
					if err != nil {
						t.Fatal(err)
					}
					if !out.IsFinite() {
						t.Errorf("%s n=%d f=%d with %d %s inputs from index %d: output is not finite",
							sh.rule, sh.n, sh.f, byz, kind, start)
					}
				}
			}
		}
	}
}
