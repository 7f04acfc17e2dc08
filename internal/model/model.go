// Package model provides the trainable models Garfield experiments use and
// the paper's Table-1 catalogue of model profiles.
//
// The paper delegates model definition to TensorFlow/PyTorch; here a Model is
// any analytically-differentiated function over a single flat parameter
// vector. That flat-vector contract is precisely the abstraction level
// Garfield's aggregation and networking layers operate at, so swapping the
// autograd engine for closed-form gradients preserves every code path the
// paper exercises. Convergence experiments use the trainable models; the
// throughput experiments, which depend only on the parameter dimension d,
// use the Table-1 profiles as opaque vectors.
package model

import (
	"errors"
	"fmt"
	"math"

	"garfield/internal/data"
	"garfield/internal/tensor"
)

// Model is a differentiable classifier over a flat parameter vector. Models
// are stateless: parameters are owned by the caller (the Server object in
// Garfield's design) and passed to every method, so server replicas can hold
// divergent copies of the same architecture.
type Model interface {
	// Name identifies the architecture.
	Name() string
	// Dim returns the length of the flat parameter vector.
	Dim() int
	// InitParams returns a fresh, deterministically-initialized parameter
	// vector.
	InitParams(rng *tensor.RNG) tensor.Vector
	// Gradient computes the average cross-entropy gradient of the batch at
	// params. The caller owns the result, which the built-in models draw
	// from the vector pool: a caller done with it may hand it back with
	// tensor.PutVec, and one that never does leaves it to the collector.
	// batch is valid only for the call (see data.Batch): the caller refills
	// its slices for the next draw, so an implementation that keeps the
	// batch copies it.
	Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error)
	// Loss computes the average cross-entropy loss of the batch at params.
	Loss(params tensor.Vector, batch data.Batch) (float64, error)
	// Accuracy computes top-1 accuracy over the dataset at params — the
	// paper's accuracy metric.
	Accuracy(params tensor.Vector, ds *data.Dataset) (float64, error)
}

var (
	// ErrBadParams is returned when a parameter vector has the wrong
	// dimension for the model.
	ErrBadParams = errors.New("model: parameter dimension mismatch")

	// ErrBadInput is returned when a batch or dataset is not one the model
	// can score: a sample of the wrong width, fewer labels than samples, or
	// (in a batch) a label that is not a class.
	ErrBadInput = errors.New("model: input dimension mismatch")
)

// softmaxInPlace converts logits to probabilities, numerically stabilized.
func softmaxInPlace(logits []float64) {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		logits[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range logits {
		logits[i] *= inv
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// logClamped returns log(p) with p clamped away from zero so Byzantine-driven
// divergence produces large-but-finite losses instead of -Inf.
func logClamped(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	return math.Log(p)
}

// outputDelta turns each sample's class probabilities into the gradient of
// its cross-entropy loss with respect to the logits: p_c - [c == label].
func outputDelta(probs []tensor.Vector, labels []int) {
	for i, p := range probs {
		p[labels[i]] -= 1
	}
}

// crossEntropy returns the mean over the batch of -log p[label]; probs
// scores up to block samples and may reuse its result's storage between
// calls.
func crossEntropy(b data.Batch, probs func(xs []tensor.Vector) []tensor.Vector) float64 {
	var loss float64
	for lo := 0; lo < len(b.Features); lo += block {
		hi := min(lo+block, len(b.Features))
		for i, p := range probs(b.Features[lo:hi]) {
			loss += -logClamped(p[b.Labels[lo+i]])
		}
	}
	return loss / float64(len(b.Features))
}

// accuracy returns the share of ds whose label is the argmax of its row of
// scores; score has the contract of crossEntropy's probs.
func accuracy(ds *data.Dataset, score func(xs []tensor.Vector) []tensor.Vector) float64 {
	correct := 0
	for lo := 0; lo < ds.Len(); lo += block {
		hi := min(lo+block, ds.Len())
		for i, s := range score(ds.Features[lo:hi]) {
			if argmax(s) == ds.Labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// checkFeatures rejects a sample whose width is not the model's input width.
func checkFeatures(in int, xs []tensor.Vector) error {
	for i, x := range xs {
		if len(x) != in {
			return fmt.Errorf("%w: feature %d has %d, want %d", ErrBadInput, i, len(x), in)
		}
	}
	return nil
}

// checkBatch rejects a batch a model with the given input width and class
// count cannot differentiate: empty, a sample of the wrong width, fewer
// labels than samples, or a label that is not a class.
func checkBatch(in, classes int, b data.Batch) error {
	if err := checkFeatures(in, b.Features); err != nil {
		return err
	}
	if len(b.Features) == 0 {
		return data.ErrEmptyDataset
	}
	if len(b.Labels) < len(b.Features) {
		return fmt.Errorf("%w: %d labels for %d samples", ErrBadInput, len(b.Labels), len(b.Features))
	}
	for i, y := range b.Labels[:len(b.Features)] {
		if y < 0 || y >= classes {
			return fmt.Errorf("%w: label %d of sample %d is not in [0, %d)", ErrBadInput, y, i, classes)
		}
	}
	return nil
}

// checkDataset rejects a dataset Accuracy cannot score: empty, a sample of
// the wrong width, or fewer labels than samples.
func checkDataset(in int, ds *data.Dataset) error {
	if ds.Len() == 0 {
		return data.ErrEmptyDataset
	}
	if err := checkFeatures(in, ds.Features); err != nil {
		return err
	}
	if len(ds.Labels) < len(ds.Features) {
		return fmt.Errorf("%w: %d labels for %d samples", ErrBadInput, len(ds.Labels), len(ds.Features))
	}
	return nil
}
