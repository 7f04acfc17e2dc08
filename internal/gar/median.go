package gar

import (
	"fmt"

	"garfield/internal/tensor"
)

// Median computes the coordinate-wise median of the inputs (Xie et al.'s
// generalized Byzantine-tolerant SGD). It requires n >= 2f+1.
//
// The implementation mirrors the paper's two execution strategies
// (Section 4.3): coordinates are split into contiguous shares processed by
// parallel workers (the CPU strategy: "each of the m cores processes a
// continuous share of n/m coordinates"), and within a share selection is a
// branch-free min/max network run down a cache-sized tile of columns for
// n <= 32 — the Go analogue of the paper's SIMT selection-instruction trick
// (tile.go) — and introselect on one gathered column at a time above that.
type Median struct {
	n, f int
	s    *arena
}

var _ Rule = (*Median)(nil)

// NewMedian returns a coordinate-wise median over n inputs tolerating f
// Byzantine ones.
func NewMedian(n, f int) (*Median, error) {
	if f < 0 || n < 2*f+1 {
		return nil, fmt.Errorf("%w: median needs n >= 2f+1, got n=%d f=%d", ErrRequirement, n, f)
	}
	return &Median{n: n, f: f, s: newArena(n)}, nil
}

// Name implements Rule.
func (m *Median) Name() string { return NameMedian }

// N implements Rule.
func (m *Median) N() int { return m.n }

// F implements Rule.
func (m *Median) F() int { return m.f }

// Aggregate implements Rule.
func (m *Median) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	return m.AggregateInto(nil, inputs)
}

// AggregateInto implements Rule.
func (m *Median) AggregateInto(dst tensor.Vector, inputs []tensor.Vector) (tensor.Vector, error) {
	d, err := checkInputs(m, inputs)
	if err != nil {
		return nil, err
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	dst = tensor.Resize(dst, d)
	m.s.runCoordinate(coordSpec{median: true}, dst, inputs)
	return dst, nil
}

// medianOfColumn selects the median of col, mutating col. For odd n it is the
// middle order statistic; for even n the average of the two middle ones
// (making the rule symmetric, which the permutation-invariance property test
// relies on).
func medianOfColumn(col []float64) float64 {
	n := len(col)
	if n%2 == 1 {
		return quickselect(col, n/2)
	}
	hi := quickselect(col, n/2)
	lo := quickselect(col[:n/2+1], n/2-1) // after partition, lower half holds the smaller order stats
	return 0.5 * (lo + hi)
}
