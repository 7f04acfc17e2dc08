package gar

import (
	"fmt"

	"garfield/internal/tensor"
)

// Phocas (Xie et al. 2018, from the same robust-mean family as Median and
// TrimmedMean) is a two-step coordinate-wise rule: compute the f-trimmed
// mean per coordinate, then average the n-f values closest to it. Like
// GeoMedian it extends the paper's evaluated set, demonstrating the
// library's extensibility. It requires n >= 2f+1.
type Phocas struct {
	n, f int
	s    *arena
}

var _ Rule = (*Phocas)(nil)

// NewPhocas returns a Phocas rule over n inputs tolerating f Byzantine ones.
func NewPhocas(n, f int) (*Phocas, error) {
	if f < 0 || n < 2*f+1 {
		return nil, fmt.Errorf("%w: phocas needs n >= 2f+1, got n=%d f=%d", ErrRequirement, n, f)
	}
	return &Phocas{n: n, f: f, s: newArena(n)}, nil
}

// Name implements Rule.
func (p *Phocas) Name() string { return NamePhocas }

// N implements Rule.
func (p *Phocas) N() int { return p.n }

// F implements Rule.
func (p *Phocas) F() int { return p.f }

// Aggregate implements Rule.
func (p *Phocas) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	return p.AggregateInto(nil, inputs)
}

// AggregateInto implements Rule.
func (p *Phocas) AggregateInto(dst tensor.Vector, inputs []tensor.Vector) (tensor.Vector, error) {
	d, err := checkInputs(p, inputs)
	if err != nil {
		return nil, err
	}
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	dst = tensor.Resize(dst, d)
	p.s.runCoordinate(coordSpec{trim: p.f, keep: p.n - p.f}, dst, inputs)
	return dst, nil
}
