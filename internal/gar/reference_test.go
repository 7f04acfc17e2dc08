package gar

import (
	"math"
	"sort"

	"garfield/internal/tensor"
)

// This file preserves the seed (pre-arena) implementations of the
// distance-based rules verbatim. They are the ground truth the equivalence
// tests in golden_test.go compare the Gram-kernel/scratch-arena fast paths
// against, bit for bit.

// naivePairwiseSquaredDistances is the seed distance matrix: one
// subtract-square-accumulate pass per pair.
func naivePairwiseSquaredDistances(vs []tensor.Vector) ([][]float64, error) {
	n := len(vs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d2, err := vs[i].SquaredDistance(vs[j])
			if err != nil {
				return nil, err
			}
			m[i][j] = d2
			m[j][i] = d2
		}
	}
	return m, nil
}

// naiveKrumScores is the seed score computation: full sort of each row, then
// the sum of the first n-f-2 entries in ascending order.
func naiveKrumScores(dist [][]float64, f int) []float64 {
	n := len(dist)
	k := n - f - 2
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, dist[i][j])
			}
		}
		sort.Float64s(row)
		var s float64
		for _, d2 := range row[:k] {
			s += d2
		}
		scores[i] = s
	}
	return scores
}

func naiveArgsortAscending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

func naiveKrum(f int, inputs []tensor.Vector) (tensor.Vector, error) {
	dist, err := naivePairwiseSquaredDistances(inputs)
	if err != nil {
		return nil, err
	}
	scores := naiveKrumScores(dist, f)
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	return inputs[best].Clone(), nil
}

func naiveMultiKrum(f, m int, inputs []tensor.Vector) (tensor.Vector, error) {
	dist, err := naivePairwiseSquaredDistances(inputs)
	if err != nil {
		return nil, err
	}
	scores := naiveKrumScores(dist, f)
	sel := naiveArgsortAscending(scores)[:m]
	chosen := make([]tensor.Vector, len(sel))
	for i, idx := range sel {
		chosen[i] = inputs[idx]
	}
	return tensor.Mean(chosen)
}

// forEachCombination calls fn with every k-subset of [0, n) in lexicographic
// order, reusing buf (len k) as scratch.
func forEachCombination(n, k int, buf []int, fn func([]int)) {
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			fn(buf)
			return
		}
		for i := start; i <= n-(k-idx); i++ {
			buf[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
}

func naiveSubsetSpread(dist [][]float64, s []int) float64 {
	var sum float64
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			sum += dist[s[i]][s[j]]
		}
	}
	return sum
}

func naiveSubsetDiameter(dist [][]float64, s []int) float64 {
	var maxD float64
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if d := dist[s[i]][s[j]]; d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

func naiveMDA(n, f int, inputs []tensor.Vector) (tensor.Vector, error) {
	if f == 0 {
		return tensor.Mean(inputs)
	}
	dist, err := naivePairwiseSquaredDistances(inputs)
	if err != nil {
		return nil, err
	}
	keep := n - f
	bestDiameter := math.Inf(1)
	bestSpread := math.Inf(1)
	var bestSubset []int
	subset := make([]int, keep)
	forEachCombination(n, keep, subset, func(s []int) {
		diam := naiveSubsetDiameter(dist, s)
		if diam > bestDiameter {
			return
		}
		spread := naiveSubsetSpread(dist, s)
		if diam < bestDiameter || spread < bestSpread {
			bestDiameter = diam
			bestSpread = spread
			bestSubset = append(bestSubset[:0], s...)
		}
	})
	chosen := make([]tensor.Vector, keep)
	for i, idx := range bestSubset {
		chosen[i] = inputs[idx]
	}
	return tensor.Mean(chosen)
}

func naiveMedianOfSorted(col []float64, order []int) float64 {
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return col[order[a]] < col[order[b]] })
	n := len(col)
	if n%2 == 1 {
		return col[order[n/2]]
	}
	return 0.5 * (col[order[n/2-1]] + col[order[n/2]])
}

func naiveBulyanSelectOne(f int, dist [][]float64, alive []int) int {
	q := len(alive)
	kNeighbours := q - f - 2
	if kNeighbours < 1 {
		kNeighbours = 1
	}
	best := -1
	bestScore := math.Inf(1)
	row := make([]float64, 0, q-1)
	for i := 0; i < q; i++ {
		row = row[:0]
		for j := 0; j < q; j++ {
			if j != i {
				row = append(row, dist[alive[i]][alive[j]])
			}
		}
		sort.Float64s(row)
		var s float64
		for _, d2 := range row[:kNeighbours] {
			s += d2
		}
		if s < bestScore {
			bestScore = s
			best = i
		}
	}
	return best
}

func naiveBulyan(n, f int, inputs []tensor.Vector) (tensor.Vector, error) {
	d := len(inputs[0])
	k := n - 2*f
	dist, err := naivePairwiseSquaredDistances(inputs)
	if err != nil {
		return nil, err
	}
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	selected := make([]tensor.Vector, 0, k)
	for iter := 0; iter < k; iter++ {
		pick := naiveBulyanSelectOne(f, dist, alive)
		selected = append(selected, inputs[alive[pick]])
		alive = append(alive[:pick], alive[pick+1:]...)
	}
	kPrime := k - 2*f
	out := tensor.New(d)
	col := make([]float64, k)
	order := make([]int, k)
	for c := 0; c < d; c++ {
		for i, v := range selected {
			col[i] = v[c]
		}
		med := naiveMedianOfSorted(col, order)
		sort.Slice(order, func(a, bb int) bool {
			return math.Abs(col[order[a]]-med) < math.Abs(col[order[bb]]-med)
		})
		var s float64
		for _, idx := range order[:kPrime] {
			s += col[idx]
		}
		out[c] = s / float64(kPrime)
	}
	return out, nil
}

// naiveMedian is the sort-based coordinate-wise median (odd: middle order
// statistic, even: mean of the two middle ones) — the reference the
// quickselect-based rule is checked against.
func naiveMedian(inputs []tensor.Vector) tensor.Vector {
	n := len(inputs)
	d := len(inputs[0])
	out := tensor.New(d)
	col := make([]float64, n)
	for c := 0; c < d; c++ {
		for i, v := range inputs {
			col[i] = v[c]
		}
		sort.Float64s(col)
		if n%2 == 1 {
			out[c] = col[n/2]
		} else {
			out[c] = 0.5 * (col[n/2-1] + col[n/2])
		}
	}
	return out
}

func naiveTrimmedMean(n, f int, inputs []tensor.Vector) tensor.Vector {
	d := len(inputs[0])
	out := tensor.New(d)
	col := make([]float64, n)
	keep := float64(n - 2*f)
	for c := 0; c < d; c++ {
		for i, v := range inputs {
			col[i] = v[c]
		}
		sort.Float64s(col)
		var s float64
		for _, x := range col[f : n-f] {
			s += x
		}
		out[c] = s / keep
	}
	return out
}

func naivePhocas(n, f int, inputs []tensor.Vector) tensor.Vector {
	d := len(inputs[0])
	out := tensor.New(d)
	col := make([]float64, n)
	order := make([]int, n)
	keep := n - f
	trimKeep := float64(n - 2*f)
	for c := 0; c < d; c++ {
		for i, v := range inputs {
			col[i] = v[c]
		}
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return col[order[a]] < col[order[b]] })
		var tm float64
		for _, idx := range order[f : n-f] {
			tm += col[idx]
		}
		tm /= trimKeep
		sort.Slice(order, func(a, b int) bool {
			return math.Abs(col[order[a]]-tm) < math.Abs(col[order[b]]-tm)
		})
		var s float64
		for _, idx := range order[:keep] {
			s += col[idx]
		}
		out[c] = s / float64(keep)
	}
	return out
}

// naiveBulyanMedianInner is the seed's median-inner Bulyan: each selection
// round picks the pool element closest in L2 to the pool's coordinate-wise
// median, then runs the same median-closest coordinate phase.
func naiveBulyanMedianInner(n, f int, inputs []tensor.Vector) (tensor.Vector, error) {
	d := len(inputs[0])
	k := n - 2*f
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	selected := make([]tensor.Vector, 0, k)
	for iter := 0; iter < k; iter++ {
		pool := make([]tensor.Vector, len(alive))
		for i, idx := range alive {
			pool[i] = inputs[idx]
		}
		center := naiveMedian(pool)
		best := 0
		bestD := math.Inf(1)
		for i, v := range pool {
			d2, err := v.SquaredDistance(center)
			if err != nil {
				return nil, err
			}
			if d2 < bestD {
				bestD = d2
				best = i
			}
		}
		selected = append(selected, inputs[alive[best]])
		alive = append(alive[:best], alive[best+1:]...)
	}
	kPrime := k - 2*f
	out := tensor.New(d)
	col := make([]float64, k)
	order := make([]int, k)
	for c := 0; c < d; c++ {
		for i, v := range selected {
			col[i] = v[c]
		}
		med := naiveMedianOfSorted(col, order)
		sort.Slice(order, func(a, bb int) bool {
			return math.Abs(col[order[a]]-med) < math.Abs(col[order[bb]]-med)
		})
		var s float64
		for _, idx := range order[:kPrime] {
			s += col[idx]
		}
		out[c] = s / float64(kPrime)
	}
	return out, nil
}

// referenceCoordinate is the per-column definition of the coordinate kernel
// (scratch.go, tile.go): gather the column, read NaN as +Inf, sort it, take
// the centre coordSpec names and, when keep > 0, the mean of the keep values
// a stable sort by distance to that centre puts first. The tile kernel and
// the per-column path above tileMaxN are both checked against it.
func referenceCoordinate(spec coordSpec, inputs []tensor.Vector) tensor.Vector {
	n := len(inputs)
	out := tensor.New(len(inputs[0]))
	col := make([]float64, n)
	for c := range out {
		for i, v := range inputs {
			col[i] = v[c]
			if math.IsNaN(col[i]) {
				col[i] = math.Inf(1)
			}
		}
		sort.Float64s(col)
		var center float64
		switch {
		case !spec.median:
			for _, x := range col[spec.trim : n-spec.trim] {
				center += x
			}
			center /= float64(n - 2*spec.trim)
		case n%2 == 1:
			center = col[n/2]
		default:
			center = 0.5 * (col[n/2-1] + col[n/2])
		}
		out[c] = center
		if spec.keep > 0 {
			out[c] = referenceClosestMean(col, center, spec.keep)
		}
	}
	return out
}

// referenceClosestMean sums, in the order of a stable sort by |x - center| of
// the ascending column col, its first keep values, and divides by keep.
func referenceClosestMean(col []float64, center float64, keep int) float64 {
	order := make([]int, len(col))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(col[order[a]]-center) < math.Abs(col[order[b]]-center)
	})
	var s float64
	for _, idx := range order[:keep] {
		s += col[idx]
	}
	return s / float64(keep)
}
