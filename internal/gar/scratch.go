package gar

import (
	"math"
	"sort"
	"sync"

	"garfield/internal/tensor"
)

// arena is the per-Rule scratch space behind the zero-allocation aggregation
// hot path (the memory-management optimization of Section 4.4 of the paper):
// every buffer the distance and coordinate kernels touch is allocated once,
// on first use, and reused across Aggregate calls. All sizes depend only on
// n, never on the input dimension d. The O(n) buffers are built at
// construction; the O(n²) pairwise-distance machinery (dist, allPairs) is
// built lazily on the first computeDistances call, so coordinate-wise rules
// (median, trimmed mean, Phocas) never pay for it — at n = 10,000 the
// distance matrix alone is 800 MB. The tile scratch of the coordinate-wise
// rules is lazy the other way round (ensureTiles), so Krum, Multi-Krum and
// MDA never pay for it.
//
// The kernels dispatched to the worker pool are prebuilt method values that
// read their per-call parameters (cIn, cOut, cSpec) from arena fields, so
// steady-state dispatch allocates nothing.
//
// An arena makes its rule stateful; the mutex serializes concurrent
// Aggregate calls on one Rule value so the seed's any-goroutine safety is
// preserved (concurrent callers wanting parallelism should use distinct Rule
// instances).
type arena struct {
	mu sync.Mutex
	n  int
	wg sync.WaitGroup

	// Pairwise-distance kernel state (Krum, Multi-Krum, MDA, Bulyan).
	vs       []tensor.Vector // inputs pinned for the duration of the kernels
	norms    []float64       // ||v_i||^2, computed once per Aggregate
	dist     []float64       // flat n×n squared-distance matrix
	allPairs [][2]int32      // (i,i) diagonal first, then (i,j) i < j row-major
	partials []float64       // per-(pair, block) partial inner products
	d, nb    int             // current input dimension and block count

	row    []float64 // one matrix row minus the diagonal
	scores []float64 // per-input Krum scores
	order  []int     // argsort scratch
	chosen []tensor.Vector

	// Bulyan selection state.
	alive    []int
	selected []tensor.Vector

	// MDA subset-enumeration state.
	subset, bestSubset []int

	// Coordinate-sharded kernel: one column and one tile per share.
	shareCols  [][]float64
	shareTiles [][]float64

	// Per-call parameters of the prebuilt coordinate kernel.
	cIn   []tensor.Vector
	cOut  tensor.Vector
	cSpec coordSpec

	blockFn func(share, lo, hi int)
	coordFn func(share, lo, hi int)
}

// coordSpec is what the coordinate kernel computes per column: a centre —
// the median, or the mean of the ranks [trim, n-trim) — and, when keep > 0,
// the mean of the keep values closest to that centre instead of the centre.
// Median is {median}, TrimmedMean {trim: f}, Phocas {trim: f, keep: n-f} and
// Bulyan's coordinate phase {median, keep: k-2f}.
type coordSpec struct {
	median     bool
	trim, keep int
}

// blockDim is the coordinate-block width of the Gram kernel: 4096 float64 =
// 32 KiB per vector block, so the full n-vector working set of one block sits
// in L2 and the two blocks of the active pair in L1.
const blockDim = 4096

// gramCancelGuard is the relative threshold below which a Gram-identity
// distance is treated as cancellation noise and recomputed directly: the
// subtraction's error is O(d·eps) of the squared norms, comfortably under
// this bound for any realistic dimension.
const gramCancelGuard = 1e-8

func newArena(n int) *arena {
	a := &arena{
		n:        n,
		norms:    make([]float64, n),
		row:      make([]float64, 0, n),
		scores:   make([]float64, n),
		order:    make([]int, n),
		chosen:   make([]tensor.Vector, 0, n),
		vs:       make([]tensor.Vector, 0, n),
		alive:    make([]int, 0, n),
		selected: make([]tensor.Vector, 0, n),
		cIn:      make([]tensor.Vector, 0, n),
	}
	shares := maxShares()
	a.shareCols = make([][]float64, shares)
	for s := range a.shareCols {
		a.shareCols[s] = make([]float64, n)
	}
	a.blockFn = a.blockKernel
	a.coordFn = a.coordKernel
	return a
}

// ensurePairwise builds the O(n²) pairwise state on first use. Diagonal
// pairs (the norms) first, then the off-diagonal pairs in row-major order so
// the i-side block stays cache-hot across one row's inner products.
func (a *arena) ensurePairwise() {
	if a.dist != nil {
		return
	}
	n := a.n
	a.dist = make([]float64, n*n)
	a.allPairs = make([][2]int32, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		a.allPairs = append(a.allPairs, [2]int32{int32(i), int32(i)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.allPairs = append(a.allPairs, [2]int32{int32(i), int32(j)})
		}
	}
}

// computeDistances fills norms and the flat distance matrix for vs using the
// Gram identity d²(i,j) = ‖i‖² + ‖j‖² − 2⟨i,j⟩: each input is read once for
// its norm and once per pair for the inner product, every inner product runs
// through the FMA/unrolled dotKernel, and — the decisive part at large d —
// the coordinate axis is tiled into blockDim-wide blocks so the n(n+1)/2
// inner products of one block read L2-resident data instead of streaming the
// full vectors from memory once per pair.
//
// Shares own disjoint block ranges and write disjoint partial slots, and the
// per-pair partials are reduced in fixed block order afterwards, so the
// matrix is bit-identical however many cores participate (the deterministic
// work-partitioning of parallel.go).
func (a *arena) computeDistances(vs []tensor.Vector, d int) {
	a.ensurePairwise()
	a.vs = append(a.vs[:0], vs...)
	a.d = d
	nb := (d + blockDim - 1) / blockDim
	if nb < 1 {
		nb = 1
	}
	a.nb = nb
	np := len(a.allPairs)
	if cap(a.partials) < np*nb {
		a.partials = make([]float64, np*nb)
	}
	a.partials = a.partials[:np*nb]
	workers := kernelWorkers(np*d, maxShares())
	parallelFor(nb, workers, &a.wg, a.blockFn)
	// Reduce the per-block partials in ascending block order — a fixed
	// summation order, independent of which share computed which block —
	// then assemble norms and distances.
	n := a.n
	for p := 0; p < n; p++ {
		a.norms[p] = sumBlocks(a.partials[p*nb : (p+1)*nb])
	}
	for p := n; p < np; p++ {
		i, j := int(a.allPairs[p][0]), int(a.allPairs[p][1])
		d2 := a.norms[i] + a.norms[j] - 2*sumBlocks(a.partials[p*nb:(p+1)*nb])
		if d2 < gramCancelGuard*(a.norms[i]+a.norms[j]) {
			// The Gram identity cancels catastrophically for inputs that
			// are close together but far from the origin (late-training
			// model vectors): when the result is within the subtraction's
			// rounding-noise floor, fall back to the direct
			// subtract-square pass, which stays accurate there. Identical
			// inputs land here and yield an exact 0 either way.
			direct, err := a.vs[i].SquaredDistance(a.vs[j])
			if err == nil {
				d2 = direct
			}
		}
		if d2 < 0 {
			d2 = 0 // Gram identity can go negative by rounding; distances cannot
		}
		if d2 != d2 {
			// NaN (a NaN input, or Inf - Inf) compares false with everything
			// and would derail every score and diameter it enters. A
			// non-finite input is infinitely far from the rest — the rule the
			// column-tile kernel uses — so the selection rules rank it last.
			d2 = math.Inf(1)
		}
		a.dist[i*n+j] = d2
		a.dist[j*n+i] = d2
	}
	// Release the input references: the matrix outlives the call, the
	// gradients must not.
	for i := range a.vs {
		a.vs[i] = nil
	}
	a.vs = a.vs[:0]
}

// blockKernel computes, for every coordinate block in [lo, hi), the partial
// inner product of every pair over that block.
func (a *arena) blockKernel(_, lo, hi int) {
	nb := a.nb
	for blk := lo; blk < hi; blk++ {
		c0 := blk * blockDim
		c1 := c0 + blockDim
		if c1 > a.d {
			c1 = a.d
		}
		for p, pr := range a.allPairs {
			a.partials[p*nb+blk] = dotKernel(a.vs[pr[0]][c0:c1], a.vs[pr[1]][c0:c1])
		}
	}
}

func sumBlocks(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// krumScoresInto fills a.scores with each input's Krum score: the sum of
// squared distances to its n-f-2 closest neighbours (lower is better). The
// per-row smallest-k sum uses introselect instead of a full sort; the
// summation order matches the sort-based formulation bit for bit (see
// sumSmallestK).
func (a *arena) krumScoresInto(f int) {
	n := a.n
	k := n - f - 2
	for i := 0; i < n; i++ {
		row := a.row[:0]
		base := i * n
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, a.dist[base+j])
			}
		}
		a.scores[i] = sumSmallestK(row, k)
	}
}

// ensureTiles builds the per-share tile scratch on first use.
func (a *arena) ensureTiles() {
	if a.shareTiles != nil {
		return
	}
	a.shareTiles = make([][]float64, len(a.shareCols))
	for s := range a.shareTiles {
		a.shareTiles[s] = make([]float64, tileFloats)
	}
}

// runCoordinate computes spec over the d coordinates of inputs into dst,
// sharded over the pool in contiguous coordinate ranges.
func (a *arena) runCoordinate(spec coordSpec, dst tensor.Vector, inputs []tensor.Vector) {
	a.cIn = append(a.cIn[:0], inputs...)
	a.cOut = dst
	a.cSpec = spec
	if len(inputs) <= tileMaxN {
		a.ensureTiles()
	}
	workers := kernelWorkers(len(dst)*4*len(inputs), len(a.shareCols))
	parallelFor(len(dst), workers, &a.wg, a.coordFn)
	a.cIn = clearVectors(a.cIn)
	a.cOut = nil
}

// coordKernel fills a.cOut[lo:hi] with a.cSpec of the matching coordinates of
// a.cIn. NaN inputs are read as +Inf on both paths.
func (a *arena) coordKernel(share, lo, hi int) {
	in, spec := a.cIn, a.cSpec
	n := len(in)
	col := a.shareCols[share][:n]
	if n > tileMaxN {
		for c := lo; c < hi; c++ {
			for i, v := range in {
				col[i] = v[c]
			}
			sanitize(col)
			a.cOut[c] = spec.ofColumn(col)
		}
		return
	}
	sorting, median := networks(n)
	for w := tileWidth(n); lo < hi; lo += w {
		if w > hi-lo {
			w = hi - lo
		}
		t := a.shareTiles[share][:n*w]
		for r, v := range in {
			copy(t[r*w:][:w], v[lo:])
		}
		sanitize(t)
		out := a.cOut[lo:][:w]
		net := sorting
		if spec.median && spec.keep == 0 {
			net = median // only the middle rows are read
		}
		runNetwork(t, w, net)
		if spec.median {
			medianRows(out, t, n, w)
		} else {
			trimmedRows(out, t, n, w, spec.trim)
		}
		if spec.keep == 0 {
			continue
		}
		for c := range out {
			for r := range col {
				col[r] = t[r*w+c]
			}
			out[c] = closestMean(col, out[c], spec.keep)
		}
	}
}

// ofColumn is the per-column form of the kernel, the path for n > tileMaxN:
// introselect for a bare median, a sort of the column for the rest — a sorted
// column being a sorted tile one coordinate wide. col is mutated.
func (s coordSpec) ofColumn(col []float64) float64 {
	if s.median && s.keep == 0 {
		return medianOfColumn(col)
	}
	sort.Float64s(col)
	var center [1]float64
	if s.median {
		medianRows(center[:], col, len(col), 1)
	} else {
		trimmedRows(center[:], col, len(col), 1, s.trim)
	}
	if s.keep == 0 {
		return center[0]
	}
	return closestMean(col, center[0], s.keep)
}
