package attack

import (
	"math"
	"testing"

	"garfield/internal/tensor"
)

// The allocating Apply implementations the in-place attacks replaced, kept as
// the oracle: every attack must return, over the vector it was handed, the
// bits these return in a fresh one.

func referenceApply(a Attack, honest tensor.Vector, peers []tensor.Vector) (tensor.Vector, bool) {
	switch a := a.(type) {
	case None:
		return honest, true
	case *Random:
		return a.rng.NormalVector(len(honest), 0, a.scale), true
	case Reversed:
		return honest.Scale(a.Factor), true
	case Drop:
		return nil, false
	case LittleIsEnough:
		mean, std, err := meanStd(peers)
		if err != nil {
			return honest.Scale(-1), true
		}
		out := mean.Clone()
		for i := range out {
			out[i] -= a.Z * std[i]
		}
		return out, true
	case FallOfEmpires:
		mean, err := tensor.Mean(peers)
		if err != nil {
			return honest.Scale(-a.Epsilon), true
		}
		return mean.Scale(-a.Epsilon), true
	case *Stale:
		if a.frozen == nil {
			a.frozen = honest.Clone()
		}
		return a.frozen.Clone(), true
	}
	panic("referenceApply: unknown attack " + a.Name())
}

// meanStd returns the coordinate-wise mean and standard deviation of vs.
func meanStd(vs []tensor.Vector) (mean, std tensor.Vector, err error) {
	mean, err = tensor.Mean(vs)
	if err != nil {
		return nil, nil, err
	}
	std = tensor.New(len(mean))
	for _, v := range vs {
		for i := range v {
			d := v[i] - mean[i]
			std[i] += d * d
		}
	}
	inv := 1 / float64(len(vs))
	for i := range std {
		std[i] = math.Sqrt(std[i] * inv)
	}
	return mean, std, nil
}

func bitsEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInPlaceApplyMatchesReference drives every built-in attack twice over
// the same inputs — the in-place Apply and the allocating reference, each on
// its own attack instance from the same seed — through several calls, so
// stateful attacks (Random's stream, Stale's frozen vector) are compared
// call by call, with and without a peer sample, on adversarial values.
func TestInPlaceApplyMatchesReference(t *testing.T) {
	const d = 257
	rng := tensor.NewRNG(42)
	inputs := func() (tensor.Vector, []tensor.Vector) {
		honest := rng.NormalVector(d, 0, 3)
		honest[3], honest[7], honest[11] = math.Inf(1), math.NaN(), math.Copysign(0, -1)
		peers := make([]tensor.Vector, 4)
		for i := range peers {
			peers[i] = rng.NormalVector(d, 0.5, 2)
		}
		peers[1][5] = math.Inf(-1)
		return honest, peers
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			got, _ := New(name, tensor.NewRNG(9))
			want, _ := New(name, tensor.NewRNG(9))
			for call := 0; call < 3; call++ {
				honest, peers := inputs()
				for _, ps := range [][]tensor.Vector{nil, peers, {peers[0], peers[1][:d-1]}} {
					in := honest.Clone()
					ref, refOK := referenceApply(want, honest.Clone(), ps)
					out, ok := got.Apply(in, ps)
					if ok != refOK {
						t.Fatalf("call %d: ok = %v, reference %v", call, ok, refOK)
					}
					if !bitsEqual(out, ref) {
						t.Fatalf("call %d (%d peers): in-place output differs from the reference", call, len(ps))
					}
					if ok && &out[0] != &in[0] {
						t.Fatalf("call %d: output is not written over the input", call)
					}
				}
			}
			if r, isRandom := got.(*Random); isRandom {
				if a, b := r.rng.Uint64(), want.(*Random).rng.Uint64(); a != b {
					t.Fatalf("RNG stream position differs after Apply: %x vs %x", a, b)
				}
			}
		})
	}
}

// TestStaleReusesOnlyAFittingInput: a puller of another dimension still gets
// the frozen vector, in a vector of its own.
func TestStaleReusesOnlyAFittingInput(t *testing.T) {
	s := &Stale{}
	s.Apply(tensor.Vector{1, 2, 3}, nil)
	short := tensor.Vector{9}
	out, ok := s.Apply(short, nil)
	if !ok || !bitsEqual(out, tensor.Vector{1, 2, 3}) {
		t.Fatalf("stale reply = %v, %v", out, ok)
	}
	out[0] = 77
	if again, _ := s.Apply(tensor.Vector{0, 0, 0}, nil); again[0] != 1 {
		t.Fatal("stale state mutated through the returned vector")
	}
}
