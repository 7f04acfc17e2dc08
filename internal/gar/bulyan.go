package gar

import (
	"fmt"
	"math"

	"garfield/internal/tensor"
)

// Bulyan (El Mhamdi et al., ICML 2018) hardens another Byzantine-resilient
// GAR against high-dimensional "hidden" attacks. It iterates an inner
// selection rule (Multi-Krum by default, as in the paper) k = n - 2f times,
// each time extracting the selected gradient; it then computes the
// coordinate-wise median of the k selections and, per coordinate, averages
// the k' = k - 2f values closest to that median. It requires n >= 4f+3.
type Bulyan struct {
	n, f  int
	inner string // inner selection rule: NameMultiKrum or NameMedian
	s     *arena

	// center is the inner-median selection's coordinate-wise median
	// scratch (d-sized, grown on first use and reused across calls).
	center tensor.Vector
}

var _ Rule = (*Bulyan)(nil)

// NewBulyan returns a Bulyan rule with Multi-Krum as the inner selection
// rule, the configuration evaluated in the paper.
func NewBulyan(n, f int) (*Bulyan, error) {
	return NewBulyanInner(n, f, NameMultiKrum)
}

// NewBulyanInner returns a Bulyan rule with an explicit inner selection rule
// ("multikrum" or "median"). The choice is the subject of one of the design
// ablation benches.
func NewBulyanInner(n, f int, inner string) (*Bulyan, error) {
	if f < 0 || n < 4*f+3 {
		return nil, fmt.Errorf("%w: bulyan needs n >= 4f+3, got n=%d f=%d", ErrRequirement, n, f)
	}
	switch inner {
	case NameMultiKrum, NameMedian:
	default:
		return nil, fmt.Errorf("%w: bulyan inner rule %q (want multikrum or median)", ErrUnknownRule, inner)
	}
	return &Bulyan{n: n, f: f, inner: inner, s: newArena(n)}, nil
}

// Name implements Rule.
func (b *Bulyan) Name() string { return NameBulyan }

// N implements Rule.
func (b *Bulyan) N() int { return b.n }

// F implements Rule.
func (b *Bulyan) F() int { return b.f }

// Inner returns the name of the inner selection rule.
func (b *Bulyan) Inner() string { return b.inner }

// Aggregate implements Rule.
func (b *Bulyan) Aggregate(inputs []tensor.Vector) (tensor.Vector, error) {
	return b.AggregateInto(nil, inputs)
}

// AggregateInto implements Rule.
func (b *Bulyan) AggregateInto(dst tensor.Vector, inputs []tensor.Vector) (tensor.Vector, error) {
	d, err := checkInputs(b, inputs)
	if err != nil {
		return nil, err
	}
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	k := b.n - 2*b.f // number of selection iterations
	selected, err := b.selectK(inputs, k, d)
	if err != nil {
		return nil, err
	}
	// Coordinate-wise median of the k selected gradients, then average of
	// the k' = k - 2f values closest to the median, per coordinate.
	dst = tensor.Resize(dst, d)
	a := b.s
	a.runCoordinate(coordSpec{median: true, keep: k - 2*b.f}, dst, selected)
	a.selected = clearVectors(a.selected)
	return dst, nil
}

// selectK runs the inner rule k times, each time extracting the selected
// gradient and removing it from the pool. The full distance matrix is
// computed once; eliminations only update the alive-index view, so no
// distance is ever recomputed across iterations — the caching described in
// Section 4.4 of the paper. The arena lock must be held; the result aliases
// b.s.selected.
func (b *Bulyan) selectK(inputs []tensor.Vector, k, d int) ([]tensor.Vector, error) {
	a := b.s
	a.computeDistances(inputs, d)
	alive := a.alive[:0]
	for i := range inputs {
		alive = append(alive, i)
	}
	selected := a.selected[:0]
	for iter := 0; iter < k; iter++ {
		pick, err := b.selectOne(alive, inputs)
		if err != nil {
			return nil, err
		}
		selected = append(selected, inputs[alive[pick]])
		alive = append(alive[:pick], alive[pick+1:]...)
	}
	a.alive = alive[:0]
	a.selected = selected
	return selected, nil
}

// selectOne returns the position (within alive) of the gradient the inner
// rule selects from the current pool.
func (b *Bulyan) selectOne(alive []int, inputs []tensor.Vector) (int, error) {
	a := b.s
	q := len(alive)
	switch b.inner {
	case NameMultiKrum:
		// Krum score within the pool: sum of squared distances to the
		// q-f-2 closest pool neighbours. The cached distance matrix is
		// re-indexed through alive, so no distance is recomputed.
		kNeighbours := q - b.f - 2
		if kNeighbours < 1 {
			kNeighbours = 1
		}
		n := a.n
		best := -1
		bestScore := math.Inf(1)
		for i := 0; i < q; i++ {
			row := a.row[:0]
			base := alive[i] * n
			for j := 0; j < q; j++ {
				if j != i {
					row = append(row, a.dist[base+alive[j]])
				}
			}
			if s := sumSmallestK(row, kNeighbours); s < bestScore {
				bestScore = s
				best = i
			}
		}
		return best, nil
	case NameMedian:
		// Pick the pool element closest (in L2) to the coordinate-wise
		// median of the pool, computed through the arena's coordinate
		// kernel (same order statistics as the Median rule, no
		// per-iteration rule or pool construction).
		pool := a.chosen[:0]
		for _, idx := range alive {
			pool = append(pool, inputs[idx])
		}
		d := len(inputs[0])
		b.center = tensor.Resize(b.center, d)
		a.runCoordinate(coordSpec{median: true}, b.center, pool)
		best := 0
		bestD := math.Inf(1)
		for i, v := range pool {
			d2, err := v.SquaredDistance(b.center)
			if err != nil {
				a.chosen = clearVectors(pool)
				return 0, err
			}
			if d2 < bestD {
				bestD = d2
				best = i
			}
		}
		a.chosen = clearVectors(pool)
		return best, nil
	default:
		return 0, fmt.Errorf("%w: bulyan inner rule %q", ErrUnknownRule, b.inner)
	}
}
