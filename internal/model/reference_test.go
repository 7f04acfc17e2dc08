package model

import (
	"fmt"
	"math"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// The per-sample implementations the dense kernels (dense.go) replaced,
// kept verbatim as the reference the equivalence tests compare against: one
// sample at a time, one accumulator per dot product.

// logits computes W x + b into out (len classes).
func refLinearLogits(m *LinearSoftmax, params tensor.Vector, x tensor.Vector, out []float64) {
	for c := 0; c < m.classes; c++ {
		row := params[c*m.in : (c+1)*m.in]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		out[c] = s + params[m.classes*m.in+c]
	}
}

func refLinearGradient(m *LinearSoftmax, params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return nil, err
	}
	if len(batch.Features) == 0 {
		return nil, data.ErrEmptyDataset
	}
	grad := tensor.New(m.Dim())
	probs := make([]float64, m.classes)
	for i, x := range batch.Features {
		refLinearLogits(m, params, x, probs)
		softmaxInPlace(probs)
		y := batch.Labels[i]
		for c := 0; c < m.classes; c++ {
			delta := probs[c]
			if c == y {
				delta -= 1
			}
			row := grad[c*m.in : (c+1)*m.in]
			for j, xv := range x {
				row[j] += delta * xv
			}
			grad[m.classes*m.in+c] += delta
		}
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

func refLinearLoss(m *LinearSoftmax, params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	if len(batch.Features) == 0 {
		return 0, data.ErrEmptyDataset
	}
	probs := make([]float64, m.classes)
	var loss float64
	for i, x := range batch.Features {
		refLinearLogits(m, params, x, probs)
		softmaxInPlace(probs)
		loss += -logClamped(probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features)), nil
}

func refLinearAccuracy(m *LinearSoftmax, params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if ds.Len() == 0 {
		return 0, data.ErrEmptyDataset
	}
	probs := make([]float64, m.classes)
	correct := 0
	for i, x := range ds.Features {
		if len(x) != m.in {
			return 0, fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), m.in)
		}
		refLinearLogits(m, params, x, probs)
		if argmax(probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

// forward computes hidden activations (tanh) and output probabilities.
func refMLPForward(m *MLP, p tensor.Vector, x tensor.Vector, h, probs []float64) {
	w1, b1, w2, b2 := m.layout(p)
	for i := 0; i < m.hidden; i++ {
		row := w1[i*m.in : (i+1)*m.in]
		s := b1[i]
		for j, xv := range x {
			s += row[j] * xv
		}
		h[i] = math.Tanh(s)
	}
	for c := 0; c < m.classes; c++ {
		row := w2[c*m.hidden : (c+1)*m.hidden]
		s := b2[c]
		for i, hv := range h {
			s += row[i] * hv
		}
		probs[c] = s
	}
	softmaxInPlace(probs)
}

func refMLPGradient(m *MLP, params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if len(params) != m.Dim() {
		return nil, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return nil, err
	}
	if len(batch.Features) == 0 {
		return nil, data.ErrEmptyDataset
	}
	grad := tensor.New(m.Dim())
	gw1, gb1, gw2, gb2 := m.layout(grad)
	_, _, w2, _ := m.layout(params)

	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	dh := make([]float64, m.hidden)
	for i, x := range batch.Features {
		refMLPForward(m, params, x, h, probs)
		y := batch.Labels[i]
		// Output layer: dL/dlogit_c = p_c - [c == y].
		for c := 0; c < m.classes; c++ {
			delta := probs[c]
			if c == y {
				delta -= 1
			}
			row := gw2[c*m.hidden : (c+1)*m.hidden]
			for j, hv := range h {
				row[j] += delta * hv
			}
			gb2[c] += delta
		}
		// Hidden layer: dh_j = sum_c delta_c * w2[c][j], through tanh'.
		for j := range dh {
			var s float64
			for c := 0; c < m.classes; c++ {
				delta := probs[c]
				if c == y {
					delta -= 1
				}
				s += delta * w2[c*m.hidden+j]
			}
			dh[j] = s * (1 - h[j]*h[j])
		}
		for j := 0; j < m.hidden; j++ {
			row := gw1[j*m.in : (j+1)*m.in]
			for k, xv := range x {
				row[k] += dh[j] * xv
			}
			gb1[j] += dh[j]
		}
	}
	grad.ScaleInPlace(1 / float64(len(batch.Features)))
	return grad, nil
}

func refMLPLoss(m *MLP, params tensor.Vector, batch data.Batch) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if err := checkBatch(m.in, m.classes, batch); err != nil {
		return 0, err
	}
	if len(batch.Features) == 0 {
		return 0, data.ErrEmptyDataset
	}
	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	var loss float64
	for i, x := range batch.Features {
		refMLPForward(m, params, x, h, probs)
		loss += -logClamped(probs[batch.Labels[i]])
	}
	return loss / float64(len(batch.Features)), nil
}

func refMLPAccuracy(m *MLP, params tensor.Vector, ds *data.Dataset) (float64, error) {
	if len(params) != m.Dim() {
		return 0, fmt.Errorf("%w: want %d, got %d", ErrBadParams, m.Dim(), len(params))
	}
	if ds.Len() == 0 {
		return 0, data.ErrEmptyDataset
	}
	h := make([]float64, m.hidden)
	probs := make([]float64, m.classes)
	correct := 0
	for i, x := range ds.Features {
		if len(x) != m.in {
			return 0, fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), m.in)
		}
		refMLPForward(m, params, x, h, probs)
		if argmax(probs) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
