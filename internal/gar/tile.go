package gar

import (
	"math"
	"sync"
)

// This file is the column-tile kernel behind the coordinate-wise rules
// (Median, TrimmedMean, Phocas, Bulyan's coordinate phase) for n <= tileMaxN.
// Instead of gathering one strided column across the n inputs and selecting
// on it, a million times, a share copies an L1-sized tile — n rows of w
// consecutive coordinates — into contiguous scratch and runs a fixed
// compare-exchange network down the rows: every comparator is one pass of
// lo[c], hi[c] = min(lo[c], hi[c]), max(lo[c], hi[c]) over two rows, with no
// data-dependent branch (the paper's Section 4.3 selection trick, on a CPU).
// Order statistics are exact, so outputs are the bits the per-column kernels
// produce; above tileMaxN those per-column kernels remain the path, because a
// network's ~n·log²n/4 comparators and n·w scratch lose to introselect there.

const (
	// tileMaxN is the largest n served by a network; the choice is made from
	// n alone (PERFORMANCE.md "Coordinate-wise GAR kernel" has the measured
	// crossover).
	tileMaxN = 32
	// tileFloats is the per-share tile scratch: 32 KiB, the n rows of one
	// tile sit in L1 together.
	tileFloats = 4096
)

// tileWidth is the number of coordinates per tile for n rows; at least 128.
func tileWidth(n int) int { return (tileFloats / n) &^ 7 }

// comparator orders rows lo < hi of a tile: afterwards row lo holds the
// column-wise minima and row hi the maxima. live says which of the two
// outputs anything downstream reads; a pruned network computes only those.
type comparator struct {
	lo, hi, live uint8
}

const (
	liveLo uint8 = 1 << iota
	liveHi
	liveBoth = liveLo | liveHi
)

var (
	networksOnce sync.Once
	sortNetworks [tileMaxN + 1][]comparator
	// medianNetworks[n] is sortNetworks[n] pruned to the comparators that
	// feed rank n/2 (and n/2-1 for even n): 22 of 26 at n = 9, 61 of 74 at
	// n = 17.
	medianNetworks [tileMaxN + 1][]comparator
)

// networks returns the sorting and the median-selection network for n rows.
// Both are built once per process for every n <= tileMaxN: rules are rebuilt
// by every run, and must not pay for (or allocate) a network each time.
func networks(n int) (sorting, median []comparator) {
	networksOnce.Do(func() {
		for m := 2; m <= tileMaxN; m++ {
			sortNetworks[m] = mergeExchange(m)
			ranks := []int{m / 2}
			if m%2 == 0 {
				ranks = append(ranks, m/2-1)
			}
			medianNetworks[m] = pruneNetwork(sortNetworks[m], m, ranks)
		}
	})
	return sortNetworks[n], medianNetworks[n]
}

// mergeExchange returns Batcher's merge-exchange sorting network for n rows
// (Knuth, TAOCP 5.2.2, Algorithm M — the arbitrary-n form of his odd-even
// merge sort; at n = 9 and 17 it needs 26 and 74 comparators where the
// power-of-two construction with the unused rows dropped needs 28 and 85).
func mergeExchange(n int) []comparator {
	var net []comparator
	t := 1
	for 1<<t < n {
		t++
	}
	for p := 1 << (t - 1); p > 0; p >>= 1 {
		q, r, d := 1<<(t-1), 0, p
		for {
			for i := 0; i < n-d; i++ {
				if i&p == r {
					net = append(net, comparator{lo: uint8(i), hi: uint8(i + d), live: liveBoth})
				}
			}
			if q == p {
				break
			}
			d, q, r = q-p, q>>1, p
		}
	}
	return net
}

// pruneNetwork walks net backwards from the output ranks and keeps only the
// comparators some kept rank depends on, one-sided where only one output is
// read.
func pruneNetwork(net []comparator, n int, ranks []int) []comparator {
	var live [tileMaxN]bool
	for _, r := range ranks {
		live[r] = true
	}
	kept := make([]comparator, 0, len(net))
	for i := len(net) - 1; i >= 0; i-- {
		k := net[i]
		k.live = 0
		if live[k.lo] {
			k.live |= liveLo
		}
		if live[k.hi] {
			k.live |= liveHi
		}
		if k.live == 0 {
			continue
		}
		live[k.lo], live[k.hi] = true, true
		kept = append(kept, k)
	}
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept
}

// runNetwork applies net to the rows of t, each w wide. Builtin min and max
// are branch-free and order -0 before +0; they propagate NaN, which is why a
// tile is sanitized before it gets here.
func runNetwork(t []float64, w int, net []comparator) {
	for _, k := range net {
		lo := t[int(k.lo)*w:][:w]
		hi := t[int(k.hi)*w:][:w]
		switch k.live {
		case liveBoth:
			for c, x := range lo {
				y := hi[c]
				lo[c] = min(x, y)
				hi[c] = max(x, y)
			}
		case liveLo:
			for c, x := range lo {
				lo[c] = min(x, hi[c])
			}
		case liveHi:
			for c, x := range lo {
				hi[c] = max(x, hi[c])
			}
		}
	}
}

// sanitize maps every NaN in xs to +Inf, so that a NaN — an input an
// adversary authors — sorts as an extreme value instead of poisoning every
// comparison it meets. The common case is one multiply-add per element on
// data already in L1: x·0 is NaN exactly for NaN and ±Inf, so a clean tile
// never reaches the rewriting pass.
func sanitize(xs []float64) {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		s0 += xs[i] * 0
		s1 += xs[i+1] * 0
		s2 += xs[i+2] * 0
		s3 += xs[i+3] * 0
	}
	for ; i < len(xs); i++ {
		s0 += xs[i] * 0
	}
	if s := (s0 + s1) + (s2 + s3); s == s {
		return
	}
	for i, x := range xs {
		if x != x {
			xs[i] = math.Inf(1)
		}
	}
}

// medianRows writes the column-wise medians of a tile whose middle rows are
// in final position: the middle row for odd n, the mean of the two middle
// rows for even n.
func medianRows(out, t []float64, n, w int) {
	hi := t[(n/2)*w:][:w]
	if n%2 == 1 {
		copy(out, hi)
		return
	}
	lo := t[(n/2-1)*w:][:w]
	for c := range out {
		out[c] = 0.5 * (lo[c] + hi[c])
	}
}

// trimmedRows writes the column-wise means of rows [trim, n-trim) of a sorted
// tile, each sum taken from +0 in ascending rank order.
func trimmedRows(out, t []float64, n, w, trim int) {
	clear(out)
	for r := trim; r < n-trim; r++ {
		row := t[r*w:][:w]
		for c := range out {
			out[c] += row[c]
		}
	}
	kept := float64(n - 2*trim)
	for c := range out {
		out[c] /= kept
	}
}

// closestMean returns the mean of the keep values of the ascending column col
// closest to center. The sum runs in the order a stable sort of the column by
// |x - center| yields — increasing distance, equal distances by ascending
// rank — in O(keep) steps: distances fall up to the first rank >= center and
// rise from it, so the order is a merge of the two sides in which the lower
// side wins ties and a run of equal distances on it (distinct values can
// round to one distance) is taken from its far end inwards.
func closestMean(col []float64, center float64, keep int) float64 {
	n := len(col)
	hi := 0
	for hi < n && col[hi] < center {
		hi++
	}
	lo := hi - 1
	var s float64
	for left := keep; left > 0; {
		if lo < 0 || (hi < n && math.Abs(col[hi]-center) < math.Abs(col[lo]-center)) {
			s += col[hi]
			hi++
			left--
			continue
		}
		dist := math.Abs(col[lo] - center)
		first := lo
		for first > 0 && math.Abs(col[first-1]-center) == dist {
			first--
		}
		run := col[first : lo+1]
		if len(run) > left {
			run = run[:left]
		}
		for _, x := range run {
			s += x
		}
		left -= len(run)
		lo = first - 1
	}
	return s / float64(keep)
}
