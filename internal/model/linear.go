package model

import (
	"fmt"
	"sync"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// LinearSoftmax is multinomial logistic regression: logits = W x + b with
// cross-entropy loss. Parameter layout: W row-major (classes x in) followed
// by b (classes).
type LinearSoftmax struct {
	in, classes int
	scratch     sync.Pool // of *scratch
}

var _ Model = (*LinearSoftmax)(nil)

// NewLinearSoftmax returns a linear softmax classifier for the given input
// dimension and class count.
func NewLinearSoftmax(in, classes int) (*LinearSoftmax, error) {
	if in <= 0 || classes < 2 {
		return nil, fmt.Errorf("%w: in=%d classes=%d", ErrBadInput, in, classes)
	}
	m := &LinearSoftmax{in: in, classes: classes}
	m.scratch.New = func() any { return newScratch(0, classes) }
	return m, nil
}

// Name implements Model.
func (m *LinearSoftmax) Name() string { return "linear-softmax" }

// Dim implements Model.
func (m *LinearSoftmax) Dim() int { return m.classes*m.in + m.classes }

// InitParams implements Model. Weights start at small Gaussian values and
// biases at zero.
func (m *LinearSoftmax) InitParams(rng *tensor.RNG) tensor.Vector {
	p := rng.NormalVector(m.Dim(), 0, 0.01)
	for i := m.classes * m.in; i < len(p); i++ {
		p[i] = 0
	}
	return p
}

// logits computes W x + b for up to block samples into sc.
func (m *LinearSoftmax) logits(sc *scratch, params tensor.Vector, xs []tensor.Vector) []tensor.Vector {
	w, b := params[:m.classes*m.in], params[m.classes*m.in:]
	out := sc.out[:len(xs)]
	denseForward(w, nil, m.in, xs, out)
	for _, o := range out {
		for c := range o {
			o[c] += b[c]
		}
	}
	return out
}

// probs is logits through softmax.
func (m *LinearSoftmax) probs(sc *scratch, params tensor.Vector, xs []tensor.Vector) []tensor.Vector {
	out := m.logits(sc, params, xs)
	for _, o := range out {
		softmaxInPlace(o)
	}
	return out
}

// Gradient implements Model.
func (m *LinearSoftmax) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
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
	gw, gb := grad[:m.classes*m.in], grad[m.classes*m.in:]
	for lo := 0; lo < len(batch.Features); lo += block {
		hi := min(lo+block, len(batch.Features))
		xs := batch.Features[lo:hi]
		delta := m.probs(sc, params, xs)
		outputDelta(delta, batch.Labels[lo:hi])
		denseAccumulate(gw, gb, m.in, delta, xs)
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

// Loss implements Model.
func (m *LinearSoftmax) Loss(params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	return crossEntropy(batch, func(xs []tensor.Vector) []tensor.Vector {
		return m.probs(sc, params, xs)
	}), nil
}

// Accuracy implements Model.
func (m *LinearSoftmax) Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkDataset(m.in, ds); err != nil {
		return 0, err
	}
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	return accuracy(ds, func(xs []tensor.Vector) []tensor.Vector {
		return m.logits(sc, params, xs)
	}), nil
}
