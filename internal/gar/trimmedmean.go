package gar

import (
	"fmt"

	"garfield/internal/tensor"
)

// TrimmedMean (Yin et al., 2018) discards, per coordinate, the f largest and
// f smallest values and averages the rest. It is not part of the paper's
// evaluated set but belongs to the robust-aggregation family the paper cites;
// it is included to demonstrate that Garfield "can straightforwardly include
// the other [GARs]" (Section 7). It requires n >= 2f+1.
type TrimmedMean struct {
	n, f int
	s    *arena
}

var _ Rule = (*TrimmedMean)(nil)

// NewTrimmedMean returns a trimmed-mean rule over n inputs trimming f from
// each tail.
func NewTrimmedMean(n, f int) (*TrimmedMean, error) {
	if f < 0 || n < 2*f+1 {
		return nil, fmt.Errorf("%w: trimmedmean needs n >= 2f+1, got n=%d f=%d", ErrRequirement, n, f)
	}
	return &TrimmedMean{n: n, f: f, s: newArena(n)}, nil
}

// Name implements Rule.
func (t *TrimmedMean) Name() string { return NameTrimmedMean }

// N implements Rule.
func (t *TrimmedMean) N() int { return t.n }

// F implements Rule.
func (t *TrimmedMean) F() int { return t.f }

// Aggregate implements Rule.
func (t *TrimmedMean) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	return t.AggregateInto(nil, inputs)
}

// AggregateInto implements Rule.
func (t *TrimmedMean) AggregateInto(dst tensor.Vector, inputs []tensor.Vector) (tensor.Vector, error) {
	d, err := checkInputs(t, inputs)
	if err != nil {
		return nil, err
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	dst = tensor.Resize(dst, d)
	t.s.runCoordinate(coordSpec{trim: t.f}, dst, inputs)
	return dst, nil
}
