// Package data provides the datasets Garfield experiments train on. The
// paper uses MNIST and CIFAR-10; neither is available offline, so this
// package generates deterministic synthetic stand-ins with the same shapes
// (28x28x1 and 32x32x3, 10 classes): a Gaussian mixture with one component
// per class. The substitution preserves what the experiments measure — the
// gradient variance structure across workers and convergence behaviour under
// attack — while remaining fully reproducible from a seed.
//
// The package also implements the two data distributions the paper's
// applications need: IID sharding for parameter-server setups and
// label-sorted (non-IID) sharding for decentralized learning.
package data

import (
	"errors"
	"fmt"

	"garfield/internal/tensor"
)

// Dataset is a labelled set of flattened examples.
type Dataset struct {
	// Features holds one flattened example per entry; all entries share
	// the same dimension.
	Features []tensor.Vector
	// Labels holds the class index of each example, in [0, Classes).
	Labels []int
	// Classes is the number of distinct classes.
	Classes int
	// Name identifies the generator ("synthetic-mnist", ...).
	Name string
}

// Batch is a view over a subset of a dataset used for one gradient estimate.
// A batch handed to a function is valid for that call only: whoever drew it
// may refill its slices for the next draw (Sampler.Next), so a callee that
// keeps a batch copies the two slices.
type Batch struct {
	Features []tensor.Vector
	Labels   []int
}

var (
	// ErrEmptyDataset is returned when an operation needs examples.
	ErrEmptyDataset = errors.New("data: empty dataset")

	// ErrBadSplit is returned for invalid partition parameters.
	ErrBadSplit = errors.New("data: invalid split")
)

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Features) }

// Dim returns the feature dimension, or 0 for an empty dataset.
func (d *Dataset) Dim() int {
	if len(d.Features) == 0 {
		return 0
	}
	return len(d.Features[0])
}

// Subset returns a dataset view over the given example indices. The returned
// dataset shares feature storage with d.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Features: make([]tensor.Vector, len(idx)),
		Labels:   make([]int, len(idx)),
		Classes:  d.Classes,
		Name:     d.Name,
	}
	for i, j := range idx {
		out.Features[i] = d.Features[j]
		out.Labels[i] = d.Labels[j]
	}
	return out
}

// Batch returns the examples at the given indices as a fresh Batch (feature
// storage shared with d).
func (d *Dataset) Batch(idx []int) Batch { return d.fill(Batch{}, idx) }

// fill returns the examples at the given indices in b's slices, grown only
// when their capacity falls short.
func (d *Dataset) fill(b Batch, idx []int) Batch {
	if cap(b.Features) < len(idx) || cap(b.Labels) < len(idx) {
		b = Batch{Features: make([]tensor.Vector, len(idx)), Labels: make([]int, len(idx))}
	}
	b.Features, b.Labels = b.Features[:len(idx)], b.Labels[:len(idx)]
	for i, j := range idx {
		b.Features[i] = d.Features[j]
		b.Labels[i] = d.Labels[j]
	}
	return b
}

// SyntheticSpec parameterizes a synthetic Gaussian-mixture dataset.
type SyntheticSpec struct {
	// Name labels the dataset.
	Name string
	// Dim is the flattened feature dimension (e.g. 784 for 28x28x1).
	Dim int
	// Classes is the number of mixture components / labels.
	Classes int
	// Train and Test are the example counts for each split.
	Train, Test int
	// Separation scales the distance between class means; larger is
	// easier. Values near 1 give a task that is learnable but not trivial.
	Separation float64
	// Noise is the within-class standard deviation.
	Noise float64
	// Seed makes generation deterministic.
	Seed uint64
}

// MNISTSpec returns the stand-in for MNIST (28x28 grayscale, 10 classes) at
// the requested scale.
func MNISTSpec(train, test int, seed uint64) SyntheticSpec {
	return SyntheticSpec{
		Name: "synthetic-mnist", Dim: 28 * 28, Classes: 10,
		Train: train, Test: test, Separation: 1.0, Noise: 1.0, Seed: seed,
	}
}

// CIFAR10Spec returns the stand-in for CIFAR-10 (32x32 RGB, 10 classes) at
// the requested scale. The class structure is made slightly harder than the
// MNIST stand-in, mirroring the real datasets' relative difficulty.
func CIFAR10Spec(train, test int, seed uint64) SyntheticSpec {
	return SyntheticSpec{
		Name: "synthetic-cifar10", Dim: 32 * 32 * 3, Classes: 10,
		Train: train, Test: test, Separation: 0.7, Noise: 1.0, Seed: seed,
	}
}

// Generate materializes train and test splits from the spec.
func Generate(spec SyntheticSpec) (train, test *Dataset, err error) {
	if spec.Dim <= 0 || spec.Classes <= 0 || spec.Train <= 0 || spec.Test <= 0 {
		return nil, nil, fmt.Errorf("%w: %+v", ErrBadSplit, spec)
	}
	rng := tensor.NewRNG(spec.Seed)
	// Class means: random unit-ish directions scaled by Separation.
	means := make([]tensor.Vector, spec.Classes)
	for c := range means {
		means[c] = rng.NormalVector(spec.Dim, 0, spec.Separation)
	}
	gen := func(n int, r *tensor.RNG) *Dataset {
		d := &Dataset{
			Features: make([]tensor.Vector, n),
			Labels:   make([]int, n),
			Classes:  spec.Classes,
			Name:     spec.Name,
		}
		for i := 0; i < n; i++ {
			c := r.Intn(spec.Classes)
			x := means[c].Clone()
			for j := range x {
				x[j] += spec.Noise * r.Norm()
			}
			d.Features[i] = x
			d.Labels[i] = c
		}
		return d
	}
	return gen(spec.Train, rng.Split()), gen(spec.Test, rng.Split()), nil
}

// PartitionIID splits the dataset into n shards of near-equal size after a
// seeded shuffle — the distribution used by parameter-server deployments.
func PartitionIID(d *Dataset, n int, seed uint64) ([]*Dataset, error) {
	if n <= 0 || d.Len() < n {
		return nil, fmt.Errorf("%w: %d examples into %d shards", ErrBadSplit, d.Len(), n)
	}
	perm := tensor.NewRNG(seed).Perm(d.Len())
	return shard(d, perm, n), nil
}

// PartitionByLabel splits the dataset into n shards after sorting by label,
// so each shard sees only a narrow slice of the classes — the non-IID
// distribution motivating the decentralized application's contract step.
func PartitionByLabel(d *Dataset, n int) ([]*Dataset, error) {
	if n <= 0 || d.Len() < n {
		return nil, fmt.Errorf("%w: %d examples into %d shards", ErrBadSplit, d.Len(), n)
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	// Stable counting sort by label keeps generation order within a class.
	buckets := make([][]int, d.Classes)
	for _, i := range idx {
		l := d.Labels[i]
		buckets[l] = append(buckets[l], i)
	}
	sorted := idx[:0]
	for _, b := range buckets {
		sorted = append(sorted, b...)
	}
	return shard(d, sorted, n), nil
}

func shard(d *Dataset, order []int, n int) []*Dataset {
	shards := make([]*Dataset, n)
	size := len(order) / n
	rem := len(order) % n
	pos := 0
	for s := 0; s < n; s++ {
		sz := size
		if s < rem {
			sz++
		}
		shards[s] = d.Subset(order[pos : pos+sz])
		pos += sz
	}
	return shards
}

// Sampler draws deterministic mini-batches (with replacement across epochs,
// without replacement within an epoch) from one shard.
type Sampler struct {
	ds    *Dataset
	rng   *tensor.RNG
	order []int
	pos   int
}

// NewSampler returns a sampler over ds seeded with seed.
func NewSampler(ds *Dataset, seed uint64) (*Sampler, error) {
	if ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	s := &Sampler{ds: ds, rng: tensor.NewRNG(seed), order: make([]int, ds.Len())}
	s.reshuffle()
	return s, nil
}

func (s *Sampler) reshuffle() {
	s.rng.PermInto(s.order)
	s.pos = 0
}

// Next returns the next mini-batch of the requested size, reshuffling at
// epoch boundaries. Batches never span an epoch boundary; a short tail batch
// is returned instead. The batch is built in scratch's slices — pass the
// previous draw back once nothing reads it any more, or a zero Batch for a
// fresh one — so a steady draw loop allocates nothing.
func (s *Sampler) Next(scratch Batch, batchSize int) Batch {
	if batchSize <= 0 {
		batchSize = 1
	}
	if s.pos >= len(s.order) {
		s.reshuffle()
	}
	end := s.pos + batchSize
	if end > len(s.order) {
		end = len(s.order)
	}
	b := s.ds.fill(scratch, s.order[s.pos:end])
	s.pos = end
	return b
}
