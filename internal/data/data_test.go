package data

import (
	"errors"
	"testing"

	"garfield/internal/tensor"
)

func smallSpec() SyntheticSpec {
	return SyntheticSpec{
		Name: "t", Dim: 16, Classes: 4, Train: 200, Test: 50,
		Separation: 1, Noise: 0.5, Seed: 1,
	}
}

func TestGenerateShapes(t *testing.T) {
	train, test, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 200 || test.Len() != 50 {
		t.Fatalf("sizes = %d, %d", train.Len(), test.Len())
	}
	if train.Dim() != 16 {
		t.Fatalf("dim = %d", train.Dim())
	}
	for _, l := range train.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Features {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Features[i] {
			if a.Features[i][j] != b.Features[i][j] {
				t.Fatal("features differ across identical seeds")
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	spec := smallSpec()
	a, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2
	b, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range a.Features[0] {
		if a.Features[0][j] != b.Features[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical first example")
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	bad := smallSpec()
	bad.Train = 0
	if _, _, err := Generate(bad); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v, want ErrBadSplit", err)
	}
}

func TestMNISTAndCIFARSpecs(t *testing.T) {
	m := MNISTSpec(10, 5, 3)
	if m.Dim != 784 || m.Classes != 10 {
		t.Fatalf("MNIST spec = %+v", m)
	}
	c := CIFAR10Spec(10, 5, 3)
	if c.Dim != 3072 || c.Classes != 10 {
		t.Fatalf("CIFAR spec = %+v", c)
	}
}

func TestPartitionIID(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionIID(train, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() < train.Len()/7 {
			t.Fatalf("shard too small: %d", s.Len())
		}
	}
	if total != train.Len() {
		t.Fatalf("shards cover %d of %d", total, train.Len())
	}
}

func TestPartitionIIDBalancedLabels(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionIID(train, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Each IID shard should see most classes.
	for i, s := range shards {
		seen := map[int]bool{}
		for _, l := range s.Labels {
			seen[l] = true
		}
		if len(seen) < 3 {
			t.Fatalf("shard %d sees only %d classes", i, len(seen))
		}
	}
}

func TestPartitionByLabelIsSkewed(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionByLabel(train, 4)
	if err != nil {
		t.Fatal(err)
	}
	// With 4 classes and 4 label-sorted shards, each shard must be
	// dominated by a single class (boundary shards may catch the tail of a
	// neighbouring class, but the majority is one label).
	for i, s := range shards {
		seen := map[int]int{}
		for _, l := range s.Labels {
			seen[l]++
		}
		top := 0
		for _, c := range seen {
			if c > top {
				top = c
			}
		}
		if top*2 < s.Len() {
			t.Fatalf("label shard %d has no majority class: %v", i, seen)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionIID(train, 0, 1); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v", err)
	}
	if _, err := PartitionIID(train, train.Len()+1, 1); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v", err)
	}
	if _, err := PartitionByLabel(train, 0); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubsetSharesStorage(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sub := train.Subset([]int{0, 1})
	if &sub.Features[0][0] != &train.Features[0][0] {
		t.Fatal("Subset copied feature storage")
	}
}

func TestSamplerCoversEpoch(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*float64]bool{}
	count := 0
	var b Batch
	for count < train.Len() {
		b = s.Next(b, 32)
		for _, f := range b.Features {
			seen[&f[0]] = true
		}
		count += len(b.Labels)
	}
	if len(seen) != train.Len() {
		t.Fatalf("one epoch visited %d of %d examples", len(seen), train.Len())
	}
}

func TestSamplerReshuffles(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Drain two epochs; must not panic and must keep returning batches.
	for i := 0; i < 2*train.Len()/16+2; i++ {
		b := s.Next(Batch{}, 16)
		if len(b.Labels) == 0 {
			t.Fatal("empty batch")
		}
	}
}

func TestSamplerEmptyDataset(t *testing.T) {
	if _, err := NewSampler(&Dataset{}, 1); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestSamplerBatchSizeClamp(t *testing.T) {
	train, _, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Next(Batch{}, 0)
	if len(b.Labels) != 1 {
		t.Fatalf("Next(0) batch size = %d, want 1", len(b.Labels))
	}
}

func TestBatchView(t *testing.T) {
	d := &Dataset{
		Features: []tensor.Vector{{1}, {2}, {3}},
		Labels:   []int{0, 1, 0},
		Classes:  2,
	}
	b := d.Batch([]int{2, 0})
	if b.Features[0][0] != 3 || b.Labels[1] != 0 {
		t.Fatalf("Batch = %+v", b)
	}
}
