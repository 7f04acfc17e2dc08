package attack

import (
	"errors"
	"testing"

	"garfield/internal/tensor"
)

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, tensor.NewRNG(1))
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("Name = %q, want %q", a.Name(), name)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("zzz", nil); !errors.Is(err, ErrUnknownAttack) {
		t.Fatalf("err = %v, want ErrUnknownAttack", err)
	}
}

func TestNonePassesThrough(t *testing.T) {
	v := tensor.Vector{1, 2, 3}
	out, ok := None{}.Apply(v, nil)
	if !ok {
		t.Fatal("None dropped the vector")
	}
	if &out[0] != &v[0] {
		t.Fatal("None should pass the vector through unchanged")
	}
}

func TestRandomReplacesPayload(t *testing.T) {
	a := NewRandom(tensor.NewRNG(7), 1.0)
	v := tensor.Filled(100, 5)
	out, ok := a.Apply(v.Clone(), nil) // the output is written over the input
	if !ok {
		t.Fatal("Random dropped")
	}
	if len(out) != 100 {
		t.Fatalf("dim = %d", len(out))
	}
	same := 0
	for i := range out {
		if out[i] == v[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("Random kept %d honest coordinates", same)
	}
}

func TestRandomNilRNG(t *testing.T) {
	a := NewRandom(nil, 1.0)
	if _, ok := a.Apply(tensor.Filled(3, 1), nil); !ok {
		t.Fatal("Random with nil rng dropped")
	}
}

func TestReversedAmplifies(t *testing.T) {
	a := Reversed{Factor: -100}
	out, ok := a.Apply(tensor.Vector{1, -2}, nil)
	if !ok {
		t.Fatal("Reversed dropped")
	}
	if out[0] != -100 || out[1] != 200 {
		t.Fatalf("Reversed = %v", out)
	}
}

func TestDropOmits(t *testing.T) {
	if _, ok := (Drop{}).Apply(tensor.Vector{1}, nil); ok {
		t.Fatal("Drop delivered a vector")
	}
}

func TestLittleIsEnoughStaysNearMean(t *testing.T) {
	peers := []tensor.Vector{
		{1.0, 2.0}, {1.2, 2.2}, {0.8, 1.8},
	}
	a := LittleIsEnough{Z: 1.0}
	out, ok := a.Apply(tensor.Vector{1, 2}, peers)
	if !ok {
		t.Fatal("LIE dropped")
	}
	// mean = (1, 2); std ~ (0.163, 0.163); output = mean - z*std must be
	// below the mean but well within the honest spread's magnitude.
	if out[0] >= 1.0 || out[0] < 0.5 {
		t.Fatalf("LIE coordinate 0 = %v", out[0])
	}
}

func TestLittleIsEnoughNoPeersFallsBack(t *testing.T) {
	a := LittleIsEnough{Z: 1.0}
	out, ok := a.Apply(tensor.Vector{2, -4}, nil)
	if !ok {
		t.Fatal("LIE dropped")
	}
	if out[0] != -2 || out[1] != 4 {
		t.Fatalf("LIE fallback = %v, want reversed", out)
	}
}

func TestFallOfEmpiresNegatesMean(t *testing.T) {
	peers := []tensor.Vector{{2, 4}, {4, 8}}
	a := FallOfEmpires{Epsilon: 1.0}
	out, ok := a.Apply(tensor.Vector{0, 0}, peers)
	if !ok {
		t.Fatal("FoE dropped")
	}
	if out[0] != -3 || out[1] != -6 {
		t.Fatalf("FoE = %v, want [-3 -6]", out)
	}
}

func TestFallOfEmpiresNoPeersFallsBack(t *testing.T) {
	a := FallOfEmpires{Epsilon: 2.0}
	out, ok := a.Apply(tensor.Vector{1}, nil)
	if !ok {
		t.Fatal("FoE dropped")
	}
	if out[0] != -2 {
		t.Fatalf("FoE fallback = %v", out)
	}
}

func TestStaleReplaysFirstPayload(t *testing.T) {
	s := &Stale{}
	first, ok := s.Apply(tensor.Vector{1, 2}, nil)
	if !ok {
		t.Fatal("stale dropped")
	}
	if first[0] != 1 || first[1] != 2 {
		t.Fatalf("first reply = %v", first)
	}
	second, ok := s.Apply(tensor.Vector{9, 9}, nil)
	if !ok {
		t.Fatal("stale dropped")
	}
	if second[0] != 1 || second[1] != 2 {
		t.Fatalf("stale did not replay: %v", second)
	}
	// Replies must not alias internal state.
	second[0] = 77
	third, _ := s.Apply(tensor.Vector{0, 0}, nil)
	if third[0] != 1 {
		t.Fatal("stale state mutated through returned slice")
	}
}

// TestMeanStd pins LittleIsEnough's in-place statistics on a case with exact
// arithmetic: peers {0} and {2} have mean 1 and (population) deviation 1, so
// the reply is 1 - z.
func TestMeanStd(t *testing.T) {
	peers := []tensor.Vector{{0}, {2}}
	for _, z := range []float64{0, 1, 2.5} {
		out, ok := LittleIsEnough{Z: z}.Apply(tensor.Vector{9}, peers)
		if !ok || len(out) != 1 || out[0] != 1-z {
			t.Fatalf("z=%v: LIE = %v, %v; want [%v]", z, out, ok, 1-z)
		}
	}
	if peers[0][0] != 0 || peers[1][0] != 2 {
		t.Fatalf("LIE wrote into its peers: %v", peers)
	}
}
