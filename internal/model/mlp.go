package model

import (
	"fmt"
	"math"
	"sync"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// MLP is a one-hidden-layer perceptron with tanh activation and softmax
// cross-entropy output: the non-convex model used where the paper trains
// deep networks. Parameter layout: W1 (hidden x in) row-major, b1 (hidden),
// W2 (classes x hidden) row-major, b2 (classes).
type MLP struct {
	in, hidden, classes int
	scratch             sync.Pool // of *scratch
}

var _ Model = (*MLP)(nil)

// NewMLP returns an MLP classifier with the given layer sizes.
func NewMLP(in, hidden, classes int) (*MLP, error) {
	if in <= 0 || hidden <= 0 || classes < 2 {
		return nil, fmt.Errorf("%w: in=%d hidden=%d classes=%d", ErrBadInput, in, hidden, classes)
	}
	m := &MLP{in: in, hidden: hidden, classes: classes}
	m.scratch.New = func() any { return newScratch(hidden, classes) }
	return m, nil
}

// Name implements Model.
func (m *MLP) Name() string { return "mlp" }

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.hidden*m.in + m.hidden + m.classes*m.hidden + m.classes
}

// Hidden returns the hidden layer width.
func (m *MLP) Hidden() int { return m.hidden }

// InitParams implements Model with Xavier-style scaling.
func (m *MLP) InitParams(rng *tensor.RNG) tensor.Vector {
	p := tensor.New(m.Dim())
	s1 := math.Sqrt(2 / float64(m.in+m.hidden))
	s2 := math.Sqrt(2 / float64(m.hidden+m.classes))
	off := 0
	for i := 0; i < m.hidden*m.in; i++ {
		p[off+i] = s1 * rng.Norm()
	}
	off += m.hidden*m.in + m.hidden // biases stay zero
	for i := 0; i < m.classes*m.hidden; i++ {
		p[off+i] = s2 * rng.Norm()
	}
	return p
}

// layout returns the four parameter segments of p.
func (m *MLP) layout(p tensor.Vector) (w1, b1, w2, b2 tensor.Vector) {
	o := 0
	w1 = p[o : o+m.hidden*m.in]
	o += m.hidden * m.in
	b1 = p[o : o+m.hidden]
	o += m.hidden
	w2 = p[o : o+m.classes*m.hidden]
	o += m.classes * m.hidden
	b2 = p[o : o+m.classes]
	return
}

// forward computes the hidden activations (tanh) and output probabilities
// of up to block samples into sc.
func (m *MLP) forward(sc *scratch, p tensor.Vector, xs []tensor.Vector) (h, probs []tensor.Vector) {
	w1, b1, w2, b2 := m.layout(p)
	h, probs = sc.h[:len(xs)], sc.out[:len(xs)]
	denseForward(w1, b1, m.in, xs, h)
	for _, hs := range h {
		for i, s := range hs {
			hs[i] = math.Tanh(s)
		}
	}
	denseForward(w2, b2, m.hidden, h, probs)
	for _, ps := range probs {
		softmaxInPlace(ps)
	}
	return h, probs
}

// Gradient implements Model (closed-form backprop through the single hidden
// layer).
func (m *MLP) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return nil, err
	}
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	grad := tensor.GetVec(m.Dim())
	clear(grad)
	gw1, gb1, gw2, gb2 := m.layout(grad)
	_, _, w2, _ := m.layout(params)
	for lo := 0; lo < len(batch.Features); lo += block {
		hi := min(lo+block, len(batch.Features))
		xs := batch.Features[lo:hi]
		h, delta := m.forward(sc, params, xs)
		// Output layer: dL/dlogit_c = p_c - [c == y].
		outputDelta(delta, batch.Labels[lo:hi])
		denseAccumulate(gw2, gb2, m.hidden, delta, h)
		// Hidden layer: dh_j = sum_c delta_c * w2[c][j], through tanh'. It
		// overwrites h, which nothing reads after the output layer's
		// gradient.
		for i, hs := range h {
			for j, hv := range hs {
				var s float64
				for c, d := range delta[i] {
					s += d * w2[c*m.hidden+j]
				}
				hs[j] = s * (1 - hv*hv)
			}
		}
		denseAccumulate(gw1, gb1, m.in, h, xs)
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

// Loss implements Model.
func (m *MLP) Loss(params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	return crossEntropy(batch, func(xs []tensor.Vector) []tensor.Vector {
		_, probs := m.forward(sc, params, xs)
		return probs
	}), nil
}

// Accuracy implements Model.
func (m *MLP) Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkDataset(m.in, ds); err != nil {
		return 0, err
	}
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	return accuracy(ds, func(xs []tensor.Vector) []tensor.Vector {
		_, probs := m.forward(sc, params, xs)
		return probs
	}), nil
}
