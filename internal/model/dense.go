package model

import "garfield/internal/tensor"

// The dense kernels: the two loops every fully-connected layer of this
// package spends its time in, register-blocked over the batch.
//
// Contract: any reordering is across independent coordinates, never within
// one coordinate's sum. Each output of denseForward is still
// bias + Σ_j w[j]·x[j] accumulated in ascending j, and each coordinate of
// denseAccumulate still receives its samples' terms one by one in sample
// order, so both produce the bits of the per-sample loops they replaced
// (reference_test.go keeps those loops; dense_test.go compares by
// math.Float64bits). The one thing not promised is which NaN: when two NaNs
// meet, the payload that survives depends on operand order, which is the
// register allocator's choice. The blocking only changes how many of those
// independent sums are in flight at once: a single-accumulator dot product
// retires one multiply-add per floating-point add latency, eight independent
// chains keep the adders busy; and a gradient row updated with four samples
// per pass is streamed through the cache a quarter as often.
//
// Where the compiler fuses x*y + z into one rounding (GOAMD64=v3, arm64) it
// does so for the blocked and the per-sample expression alike — both are
// plain `s += a*b` chains — which the CI leg `GOAMD64=v3 go test
// ./internal/model/` checks; a fused build's results differ from an unfused
// build's, as they always did.

// block is the number of samples the kernels carry per pass. Callers walk a
// batch in blocks, so their scratch is block rows however large the batch;
// a last block of 1 to 3 samples takes the single-chain tails.
const block = 4

// denseForward computes out[s][r] = b + Σ_j w[r*n+j]·xs[s][j] for each of
// up to block samples and every row r of the row-major matrix w, where b is
// bias[r] and opens the sum, or 0 when bias is nil. The number of rows is
// len(out[s]); every xs[s] has length n.
func denseForward(w, bias []float64, n int, xs, out []tensor.Vector) {
	rows := len(out[0])
	var b0, b1 float64
	r := 0
	if len(xs) == block {
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		o0, o1, o2, o3 := out[0], out[1], out[2], out[3]
		for ; r+2 <= rows; r += 2 {
			if bias != nil {
				b0, b1 = bias[r], bias[r+1]
			}
			o0[r], o0[r+1], o1[r], o1[r+1], o2[r], o2[r+1], o3[r], o3[r+1] =
				dot4x2(w[r*n:(r+1)*n], w[(r+1)*n:(r+2)*n], x0, x1, x2, x3, b0, b1)
		}
	}
	// The odd last row of a full block, every row of a short one.
	for ; r < rows; r++ {
		if bias != nil {
			b0 = bias[r]
		}
		row := w[r*n : (r+1)*n]
		for s, x := range xs {
			out[s][r] = dot(row, x, b0)
		}
	}
}

// dot4x2 returns the eight sums b_r + Σ_j w_r[j]·x_s[j] of four samples
// against two weight rows (sSR is sample S, row R): eight independent
// accumulator chains over six loads per step.
func dot4x2(w0, w1, x0, x1, x2, x3 []float64, b0, b1 float64) (s00, s01, s10, s11, s20, s21, s30, s31 float64) {
	n := len(w0)
	w1, x0, x1, x2, x3 = w1[:n], x0[:n], x1[:n], x2[:n], x3[:n]
	s00, s10, s20, s30 = b0, b0, b0, b0
	s01, s11, s21, s31 = b1, b1, b1, b1
	for j, u := range w0 {
		v := w1[j]
		y0, y1, y2, y3 := x0[j], x1[j], x2[j], x3[j]
		s00 += u * y0
		s01 += v * y0
		s10 += u * y1
		s11 += v * y1
		s20 += u * y2
		s21 += v * y2
		s30 += u * y3
		s31 += v * y3
	}
	return
}

// dot returns b + Σ_j w[j]·x[j]: the single chain the blocks' tails fall
// back to.
func dot(w, x []float64, b float64) float64 {
	x = x[:len(w)]
	s := b
	for j, u := range w {
		s += u * x[j]
	}
	return s
}

// denseAccumulate adds, for each of up to block samples s in order and
// every row r, ds[s][r]·xs[s] to row r of the row-major gradient matrix g
// and ds[s][r] to gb[r]. len(gb) is the number of rows; every xs[s] has
// length n.
func denseAccumulate(g, gb []float64, n int, ds, xs []tensor.Vector) {
	if len(xs) == block {
		d0, d1, d2, d3 := ds[0], ds[1], ds[2], ds[3]
		for r := range gb {
			axpy4(g[r*n:(r+1)*n], xs[0], xs[1], xs[2], xs[3], d0[r], d1[r], d2[r], d3[r])
			gb[r] = gb[r] + d0[r] + d1[r] + d2[r] + d3[r]
		}
		return
	}
	for s, x := range xs {
		for r := range gb {
			axpy(g[r*n:(r+1)*n], x, ds[s][r])
			gb[r] += ds[s][r]
		}
	}
}

// axpy4 is four consecutive axpy calls on one row in one pass: every
// row[k] takes its four terms left to right, and the row is loaded and
// stored once.
func axpy4(row, x0, x1, x2, x3 []float64, d0, d1, d2, d3 float64) {
	n := len(row)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for k, g := range row {
		row[k] = g + d0*x0[k] + d1*x1[k] + d2*x2[k] + d3*x3[k]
	}
}

// axpy adds d·x to row.
func axpy(row, x []float64, d float64) {
	x = x[:len(row)]
	for k := range row {
		row[k] += d * x[k]
	}
}

// scratch is the working set of one block: the hidden layer's activations,
// then deltas (zero-width rows for a model without one), and the output
// layer's logits, then probabilities, then deltas. Models recycle it through a
// sync.Pool so that a gradient allocates only the vector it returns.
type scratch struct {
	h, out []tensor.Vector
}

func newScratch(hidden, classes int) *scratch {
	buf := make([]float64, block*(hidden+classes))
	sc := &scratch{h: make([]tensor.Vector, block), out: make([]tensor.Vector, block)}
	for i := range sc.h {
		sc.h[i], buf = buf[:hidden:hidden], buf[hidden:]
		sc.out[i], buf = buf[:classes:classes], buf[classes:]
	}
	return sc
}
