package gar

// Shared order-statistic selection primitives. Every rule that needs an order
// statistic or a smallest-k sum goes through these instead of fully sorting:
// introselect is O(n) expected with a hard O(n log n) fallback. (The
// branch-free selection networks of the coordinate-wise rules are in
// tile.go.)

// quickselect returns the k-th smallest element of xs (0-indexed), mutating
// xs. It uses median-of-three pivoting with a fallback to a full sort on
// pathological recursion depth (the "intro" part of introselect). On return,
// xs[:k] holds the k smallest values (in unspecified order) and xs[k+1:] the
// larger ones — the partition invariant sumSmallestK relies on.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	depth := 0
	maxDepth := 2 * log2(len(xs))
	for lo < hi {
		if depth > maxDepth {
			insertionSort(xs[lo : hi+1])
			return xs[k]
		}
		depth++
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot: order xs[lo], xs[mid], xs[hi].
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi-1] = xs[hi-1], xs[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi-1] = xs[hi-1], xs[i]
	return i
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// sumSmallestK returns the sum, taken in ascending value order, of the k
// smallest elements of xs, mutating xs. Introselect partitions the k smallest
// into xs[:k]; the prefix is then insertion-sorted so the summation order —
// and therefore the floating-point result — is bit-identical to sorting the
// whole slice ascending and summing the first k, which is how the naive
// krumScores computed it.
func sumSmallestK(xs []float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(xs) {
		k = len(xs)
	}
	if k < len(xs) {
		quickselect(xs, k-1)
	}
	insertionSort(xs[:k])
	var s float64
	for _, x := range xs[:k] {
		s += x
	}
	return s
}

// argsortStable fills idx with 0..len(keys)-1 sorted ascending by keys,
// breaking ties by index (the permutation a stable sort produces, matching
// the sort.SliceStable-based argsort it replaces). Insertion sort: the rules
// only argsort n-sized score slices, with n small.
func argsortStable(idx []int, keys []float64) {
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && keys[idx[j]] < keys[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
