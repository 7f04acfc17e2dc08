package model

import (
	"errors"
	"math"
	"testing"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

func smallDataset(t *testing.T) (*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Generate(data.SyntheticSpec{
		Name: "t", Dim: 10, Classes: 3, Train: 300, Test: 100,
		Separation: 2, Noise: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func fullBatch(d *data.Dataset) data.Batch {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Batch(idx)
}

// numericGradientCheck compares the analytic gradient against central finite
// differences on a few random coordinates.
func numericGradientCheck(t *testing.T, m Model, params tensor.Vector, b data.Batch) {
	t.Helper()
	grad, err := m.Gradient(params, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(99)
	const h = 1e-6
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		lp, err := m.Loss(params, b)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig - h
		lm, err := m.Loss(params, b)
		if err != nil {
			t.Fatal(err)
		}
		params[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("gradient check failed at %d: analytic %v, numeric %v", i, grad[i], numeric)
		}
	}
}

func TestLinearSoftmaxDim(t *testing.T) {
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 33 {
		t.Fatalf("Dim = %d, want 33", m.Dim())
	}
}

func TestLinearGradientCheck(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(1))
	b := train.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	numericGradientCheck(t, m, params, b)
}

func TestMLPGradientCheck(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewMLP(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(2))
	b := train.Batch([]int{0, 1, 2, 3})
	numericGradientCheck(t, m, params, b)
}

func TestMLPDim(t *testing.T) {
	m, err := NewMLP(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 8*10 + 8 + 3*8 + 3
	if m.Dim() != want {
		t.Fatalf("Dim = %d, want %d", m.Dim(), want)
	}
	if m.Hidden() != 8 {
		t.Fatalf("Hidden = %d", m.Hidden())
	}
}

func TestLinearLearnsSyntheticTask(t *testing.T) {
	train, test := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(3))
	before, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	b := fullBatch(train)
	for step := 0; step < 150; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	after, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.85 {
		t.Fatalf("accuracy after training = %v (before %v), want >= 0.85", after, before)
	}
	if after <= before {
		t.Fatalf("training did not improve accuracy: %v -> %v", before, after)
	}
}

func TestMLPLearnsSyntheticTask(t *testing.T) {
	train, test := smallDataset(t)
	m, err := NewMLP(10, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(4))
	b := fullBatch(train)
	for step := 0; step < 200; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("MLP accuracy = %v, want >= 0.85", acc)
	}
}

func TestLossDecreasesUnderGD(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(5))
	b := fullBatch(train)
	l0, err := m.Loss(params, b)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		g, err := m.Gradient(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.AXPY(-0.2, g); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := m.Loss(params, b)
	if err != nil {
		t.Fatal(err)
	}
	if l1 >= l0 {
		t.Fatalf("loss did not decrease: %v -> %v", l0, l1)
	}
}

func TestParamDimValidation(t *testing.T) {
	train, _ := smallDataset(t)
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(m.Dim() + 1)
	b := train.Batch([]int{0})
	if _, err := m.Gradient(bad, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Gradient err = %v", err)
	}
	if _, err := m.Loss(bad, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Loss err = %v", err)
	}
	if _, err := m.Accuracy(bad, train); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Accuracy err = %v", err)
	}
	mm, err := NewMLP(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	badM := tensor.New(mm.Dim() - 1)
	if _, err := mm.Gradient(badM, b); !errors.Is(err, ErrBadParams) {
		t.Fatalf("MLP Gradient err = %v", err)
	}
}

// TestInputDimValidation: a batch a model cannot differentiate is an
// ErrBadInput from every model, never an index panic inside a handler
// goroutine (short labels) or a label silently treated as "no class".
func TestInputDimValidation(t *testing.T) {
	linear, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := NewCNN(4, 4, 1, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		m  Model
		in int
	}{{linear, 10}, {mlp, 10}, {cnn, cnn.InputDim()}}
	for _, mc := range models {
		good := func(n int) []tensor.Vector {
			xs := make([]tensor.Vector, n)
			for i := range xs {
				xs[i] = tensor.New(mc.in)
			}
			return xs
		}
		for _, tc := range []struct {
			name  string
			batch data.Batch
		}{
			{"narrow feature", data.Batch{Features: []tensor.Vector{tensor.New(mc.in - 1)}, Labels: []int{0}}},
			{"wide feature in a tail", data.Batch{Features: append(good(4), tensor.New(mc.in+1)), Labels: make([]int, 5)}},
			{"fewer labels than samples", data.Batch{Features: good(3), Labels: []int{0, 1}}},
			{"no labels", data.Batch{Features: good(1)}},
			{"negative label", data.Batch{Features: good(2), Labels: []int{0, -1}}},
			{"label equal to classes", data.Batch{Features: good(2), Labels: []int{3, 0}}},
		} {
			t.Run(mc.m.Name()+"/"+tc.name, func(t *testing.T) {
				params := mc.m.InitParams(tensor.NewRNG(1))
				if _, err := mc.m.Gradient(params, tc.batch); !errors.Is(err, ErrBadInput) {
					t.Fatalf("Gradient err = %v, want ErrBadInput", err)
				}
				if _, err := mc.m.Loss(params, tc.batch); !errors.Is(err, ErrBadInput) {
					t.Fatalf("Loss err = %v, want ErrBadInput", err)
				}
			})
		}
		t.Run(mc.m.Name()+"/dataset", func(t *testing.T) {
			params := mc.m.InitParams(tensor.NewRNG(1))
			for name, ds := range map[string]*data.Dataset{
				"narrow feature":            {Features: append(good(5), tensor.New(mc.in-1)), Labels: make([]int, 6)},
				"fewer labels than samples": {Features: good(5), Labels: make([]int, 4)},
			} {
				if _, err := mc.m.Accuracy(params, ds); !errors.Is(err, ErrBadInput) {
					t.Fatalf("Accuracy over a dataset with a %s: err = %v, want ErrBadInput", name, err)
				}
			}
		})
	}
}

func TestEmptyBatch(t *testing.T) {
	m, err := NewLinearSoftmax(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := m.InitParams(tensor.NewRNG(1))
	if _, err := m.Gradient(params, data.Batch{}); !errors.Is(err, data.ErrEmptyDataset) {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
	if _, err := m.Accuracy(params, &data.Dataset{}); !errors.Is(err, data.ErrEmptyDataset) {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewLinearSoftmax(0, 3); err == nil {
		t.Fatal("expected error for in=0")
	}
	if _, err := NewLinearSoftmax(5, 1); err == nil {
		t.Fatal("expected error for classes=1")
	}
	if _, err := NewMLP(5, 0, 3); err == nil {
		t.Fatal("expected error for hidden=0")
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := []float64{1000, 1001, 999}
	softmaxInPlace(logits)
	var sum float64
	for _, p := range logits {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("softmax produced invalid probability: %v", logits)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestTable1Profiles(t *testing.T) {
	profiles := Table1()
	if len(profiles) != 6 {
		t.Fatalf("Table1 has %d entries, want 6", len(profiles))
	}
	wantParams := map[string]int{
		"MNIST_CNN":  79510,
		"CifarNet":   1756426,
		"Inception":  5602874,
		"ResNet-50":  23539850,
		"ResNet-200": 62697610,
		"VGG":        128807306,
	}
	wantMB := map[string]float64{
		"MNIST_CNN":  0.3,
		"CifarNet":   6.7,
		"Inception":  21.4, // paper's value is derived from 22.4 MB raw /1e6; allow rounding below
		"ResNet-50":  89.8,
		"ResNet-200": 239.2,
		"VGG":        491.4,
	}
	for _, p := range profiles {
		if p.Params != wantParams[p.Name] {
			t.Fatalf("%s params = %d, want %d", p.Name, p.Params, wantParams[p.Name])
		}
		// Sizes in the paper are params * 4 bytes; check within 10%.
		if math.Abs(p.SizeMB()-wantMB[p.Name])/wantMB[p.Name] > 0.10 {
			t.Fatalf("%s size = %.1f MB, paper says %.1f", p.Name, p.SizeMB(), wantMB[p.Name])
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	if p.Params != 23539850 {
		t.Fatalf("params = %d", p.Params)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	m, err := NewMLP(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.InitParams(tensor.NewRNG(8))
	b := m.InitParams(tensor.NewRNG(8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams not deterministic")
		}
	}
}
