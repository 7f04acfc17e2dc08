package model

import (
	"fmt"
	"math"
	"testing"

	"garfield/internal/data"
	"garfield/internal/tensor"
	"garfield/internal/testutil"
)

// The kernels' contract is bit-identity with the per-sample loops in
// reference_test.go, so every comparison here is on math.Float64bits:
// Vector.Equal cannot see a NaN (NaN != NaN) or tell -0 from +0.
//
// One thing is outside the contract: which NaN. When both operands of an
// add or multiply are NaN the hardware returns one operand's payload and
// sign (on x86 the first), and which operand comes first is the register
// allocator's choice, not the source's — math.NaN() and the NaN that
// Inf - Inf produces differ in both, so two compilations of the same
// expression may disagree. All NaNs therefore compare as one value.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func requireSameVector(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: coordinate %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomBatch draws b samples of width in with labels in [0, classes).
func randomBatch(rng *tensor.RNG, b, in, classes int) data.Batch {
	batch := data.Batch{Features: make([]tensor.Vector, b), Labels: make([]int, b)}
	for i := range batch.Features {
		batch.Features[i] = rng.NormalVector(in, 0, 1)
		batch.Labels[i] = rng.Intn(classes)
	}
	return batch
}

// reference pairs a model with the per-sample implementation of each method.
type reference struct {
	name        string
	m           Model
	in, classes int
	gradient    func(tensor.Vector, data.Batch) (tensor.Vector, error)
	loss        func(tensor.Vector, data.Batch) (float64, error)
	accuracy    func(tensor.Vector, *data.Dataset) (float64, error)
}

func mlpReference(t *testing.T, in, hidden, classes int) reference {
	t.Helper()
	m, err := NewMLP(in, hidden, classes)
	if err != nil {
		t.Fatal(err)
	}
	return reference{
		name: fmt.Sprintf("mlp_%d_%d_%d", in, hidden, classes),
		m:    m, in: in, classes: classes,
		gradient: func(p tensor.Vector, b data.Batch) (tensor.Vector, error) { return refMLPGradient(m, p, b) },
		loss:     func(p tensor.Vector, b data.Batch) (float64, error) { return refMLPLoss(m, p, b) },
		accuracy: func(p tensor.Vector, ds *data.Dataset) (float64, error) { return refMLPAccuracy(m, p, ds) },
	}
}

func linearReference(t *testing.T, in, classes int) reference {
	t.Helper()
	m, err := NewLinearSoftmax(in, classes)
	if err != nil {
		t.Fatal(err)
	}
	return reference{
		name: fmt.Sprintf("linear_%d_%d", in, classes),
		m:    m, in: in, classes: classes,
		gradient: func(p tensor.Vector, b data.Batch) (tensor.Vector, error) { return refLinearGradient(m, p, b) },
		loss:     func(p tensor.Vector, b data.Batch) (float64, error) { return refLinearLoss(m, p, b) },
		accuracy: func(p tensor.Vector, ds *data.Dataset) (float64, error) { return refLinearAccuracy(m, p, ds) },
	}
}

// requireEquivalent checks Gradient, Loss and Accuracy of r.m against the
// reference at params over batch (which doubles as the accuracy dataset).
func requireEquivalent(t *testing.T, r reference, params tensor.Vector, batch data.Batch) {
	t.Helper()
	got, err := r.m.Gradient(params, batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.gradient(params, batch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameVector(t, "gradient", got, want)

	gotLoss, err := r.m.Loss(params, batch)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss, err := r.loss(params, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(gotLoss, wantLoss) {
		t.Fatalf("loss = %v, reference %v", gotLoss, wantLoss)
	}

	ds := &data.Dataset{Features: batch.Features, Labels: batch.Labels}
	gotAcc, err := r.m.Accuracy(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, err := r.accuracy(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(gotAcc, wantAcc) {
		t.Fatalf("accuracy = %v, reference %v", gotAcc, wantAcc)
	}
}

// TestKernelMatchesReference sweeps batch sizes around the 4-sample block
// and layer shapes around the 2-row block (1 and 3 leave only tails, 127
// and 785 leave one), plus the benchmark's MLP shape.
func TestKernelMatchesReference(t *testing.T) {
	var refs []reference
	for _, in := range []int{1, 3, 785} {
		for _, classes := range []int{2, 3, 10} {
			refs = append(refs, linearReference(t, in, classes))
			for _, hidden := range []int{1, 3, 127} {
				refs = append(refs, mlpReference(t, in, hidden, classes))
			}
		}
	}
	refs = append(refs, mlpReference(t, 784, 128, 10), linearReference(t, 1000, 10))
	for _, r := range refs {
		t.Run(r.name, func(t *testing.T) {
			rng := tensor.NewRNG(17)
			params := r.m.InitParams(rng)
			// InitParams leaves biases at zero; a live model's are not.
			for i := range params {
				if params[i] == 0 {
					params[i] = 0.1 * rng.Norm()
				}
			}
			for _, b := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33} {
				requireEquivalent(t, r, params, randomBatch(rng, b, r.in, r.classes))
			}
		})
	}
}

// TestKernelMatchesReferenceSamplerTail drives both implementations with
// what a worker's sampler actually yields, including the short last batch of
// an epoch.
func TestKernelMatchesReferenceSamplerTail(t *testing.T) {
	train, _ := smallDataset(t) // 300 samples: batches of 32 leave a tail of 12
	sampler, err := data.NewSampler(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	refs := []reference{mlpReference(t, 10, 8, 3), linearReference(t, 10, 3)}
	params := make([]tensor.Vector, len(refs))
	for i, r := range refs {
		params[i] = r.m.InitParams(tensor.NewRNG(3))
	}
	sizes := map[int]bool{}
	var batch data.Batch
	for step := 0; step < 12; step++ {
		batch = sampler.Next(batch, 32)
		sizes[len(batch.Features)] = true
		for i, r := range refs {
			requireEquivalent(t, r, params[i], batch)
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("sampler yielded only batch sizes %v: no tail batch exercised", sizes)
	}
}

// TestKernelMatchesReferenceNonFinite: a Byzantine server authors the model
// a worker differentiates, so parameters (and, from a poisoned shard,
// features) may hold anything. The kernels must propagate NaN, ±Inf, -0 and
// overflow exactly as the per-sample loops do.
func TestKernelMatchesReferenceNonFinite(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -1e300, 0}
	refs := []reference{mlpReference(t, 9, 5, 3), linearReference(t, 9, 3), mlpReference(t, 784, 128, 10)}
	for _, r := range refs {
		t.Run(r.name, func(t *testing.T) {
			for _, b := range []int{1, 4, 7, 33} {
				for trial := 0; trial < 12; trial++ {
					rng := tensor.NewRNG(uint64(1000*b + trial))
					params := r.m.InitParams(rng)
					batch := randomBatch(rng, b, r.in, r.classes)
					// Trials 0-3 poison parameters only, 4-7 features only,
					// the rest both; the count grows with the trial.
					for k := 0; k <= trial; k++ {
						v := specials[rng.Intn(len(specials))]
						if trial < 4 || trial >= 8 {
							params[rng.Intn(len(params))] = v
						}
						if trial >= 4 {
							batch.Features[rng.Intn(b)][rng.Intn(r.in)] = v
						}
					}
					requireEquivalent(t, r, params, batch)
				}
			}
		})
	}
}

// TestGradientAllocatesOnlyItsResult locks the pooled scratch and the
// borrowed result: in steady state the returned vector is Gradient's one
// allocation for a caller that keeps it, and a caller that hands it back
// (tensor.PutVec) allocates nothing.
func TestGradientAllocatesOnlyItsResult(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("under the race detector sync.Pool drops a share of its Puts on purpose")
	}
	for _, r := range []reference{mlpReference(t, 20, 16, 4), linearReference(t, 20, 4)} {
		t.Run(r.name, func(t *testing.T) {
			rng := tensor.NewRNG(1)
			params := r.m.InitParams(rng)
			batch := randomBatch(rng, 9, 20, 4)
			for _, tc := range []struct {
				release bool
				want    float64
			}{{false, 1}, {true, 0}} {
				allocs := testing.AllocsPerRun(50, func() {
					g, err := r.m.Gradient(params, batch)
					if err != nil {
						t.Fatal(err)
					}
					if tc.release {
						tensor.PutVec(g)
					}
				})
				if allocs != tc.want {
					t.Fatalf("release=%v: Gradient makes %v allocations per call, want %v", tc.release, allocs, tc.want)
				}
			}
		})
	}
}
