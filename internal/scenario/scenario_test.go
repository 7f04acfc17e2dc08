package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"garfield/internal/attack"
	"garfield/internal/tensor"
)

// validSpec returns a small spec that passes validation.
func validSpec() Spec {
	return Spec{
		Topology: TopoSSMW,
		NW:       5, FW: 1,
		Rule:      "median",
		Model:     ModelSpec{Kind: ModelLinear, In: 8, Classes: 4},
		Dataset:   DatasetSpec{Name: "t", Dim: 8, Classes: 4, Train: 120, Test: 40, Separation: 1, Noise: 1, Seed: 1},
		BatchSize: 8,
		Seed:      1, Iterations: 4,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sp, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		var buf bytes.Buffer
		if err := sp.EncodeJSON(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(sp, got) {
			t.Errorf("%s: round trip changed the spec:\nbefore %+v\nafter  %+v", name, sp, got)
		}
	}
}

func TestDecodeJSONRejectsUnknownFields(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(`{"topology": "ssmw", "typo_field": 3}`))
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("want ErrSpec for unknown field, got %v", err)
	}
}

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		sp, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("preset %q fails validation: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-scenario"); !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("want ErrUnknownScenario, got %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the error
	}{
		{"unknown topology", func(sp *Spec) { sp.Topology = "ring" }, "unknown topology"},
		{"missing topology", func(sp *Spec) { sp.Topology = "" }, "topology is required"},
		{"unknown rule", func(sp *Spec) { sp.Rule = "super-median" }, "unknown rule"},
		{"missing rule", func(sp *Spec) { sp.Rule = "" }, "rule is required"},
		// The paper's resilience preconditions: median needs n >= 2f+1,
		// krum n >= 2f+3, bulyan n >= 4f+3. Each violated shape must be
		// rejected at validation time, not at run time.
		{"median n <= 2f", func(sp *Spec) { sp.NW, sp.FW = 4, 2 }, "requirement"},
		{"krum n < 2f+3", func(sp *Spec) { sp.Rule = "krum"; sp.NW, sp.FW = 4, 1 }, "requirement"},
		{"bulyan n < 4f+3", func(sp *Spec) { sp.Rule = "bulyan"; sp.NW, sp.FW = 6, 1 }, "requirement"},
		{"fw out of range", func(sp *Spec) { sp.FW = 5 }, "fw=5"},
		{"unknown worker attack", func(sp *Spec) { sp.WorkerAttack.Name = "meteor" }, "unknown attack"},
		{"unknown server attack", func(sp *Spec) { sp.ServerAttack.Name = "meteor" }, "unknown attack"},
		{"unknown model kind", func(sp *Spec) { sp.Model.Kind = "transformer" }, "model kind"},
		{"model/dataset dim mismatch", func(sp *Spec) { sp.Model.In = 16 }, "dataset dim"},
		{"bad dataset", func(sp *Spec) { sp.Dataset.Train = 0 }, "dataset"},
		{"zero iterations", func(sp *Spec) { sp.Iterations = 0 }, "iterations"},
		{"msmw needs replicas", func(sp *Spec) { sp.Topology = TopoMSMW; sp.NPS = 1 }, "nps >= 2"},
		{"fault after out of range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 9, Kind: FaultCrashWorker, Node: 0}}
		}, "outside"},
		{"fault unknown kind", func(sp *Spec) {
			sp.Faults = []Fault{{After: 1, Kind: "meteor", Node: 0}}
		}, "unknown kind"},
		{"fault node out of range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 1, Kind: FaultCrashWorker, Node: 9}}
		}, "worker 9"},
		{"delay fault needs delay", func(sp *Spec) {
			sp.Faults = []Fault{{After: 1, Kind: FaultDelayWorker, Node: 0}}
		}, "delay_ms"},
		{"slow fault needs delay", func(sp *Spec) {
			sp.Faults = []Fault{{After: 1, Kind: FaultSlowWorker, Node: 0}}
		}, "delay_ms"},
		{"async unsupported topology", func(sp *Spec) {
			sp.Topology = TopoDecentralized
			sp.Async = true
		}, "async supports"},
		{"async contradicts sync quorum", func(sp *Spec) {
			sp.Async = true
			sp.SyncQuorum = true
		}, "sync_quorum"},
		{"async deterministic msmw", func(sp *Spec) {
			sp.Topology = TopoMSMW
			sp.NPS = 3
			sp.Async = true
			sp.Deterministic = true
		}, "replay"},
		{"staleness without async", func(sp *Spec) {
			sp.StalenessBound = 3
		}, "require async"},
		{"negative staleness bound", func(sp *Spec) {
			sp.Async = true
			sp.StalenessBound = -1
		}, "staleness_bound"},
		{"damping out of range", func(sp *Spec) {
			sp.Async = true
			sp.StalenessDamping = 1.5
		}, "staleness_damping"},
		{"async rule requirement at q = n - f", func(sp *Spec) {
			// krum needs n >= 2f+3: lockstep ssmw aggregates n=5 inputs
			// (fine at f=1), async only q = n - f = 4 (violating it). The
			// async shape must be what validation checks.
			sp.Rule = "krum"
			sp.Async = true
		}, "requirement"},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mutate(&sp)
		err := sp.Validate()
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: want ErrSpec, got %v", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidSpecValidates(t *testing.T) {
	sp := validSpec()
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestMaterializeDecentralizedForcesPairs(t *testing.T) {
	sp := validSpec()
	sp.Topology = TopoDecentralized
	sp.NPS, sp.FPS = 0, 0
	cfg, err := Materialize(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NPS != sp.NW || cfg.FPS != 0 {
		t.Fatalf("decentralized must pair servers and workers: nps=%d fps=%d (nw=%d)",
			cfg.NPS, cfg.FPS, sp.NW)
	}
}

// TestLiveAttackOverridesOneSlot: a live instance replaces only its own
// slot; the other slot still materializes from its declarative spec.
func TestLiveAttackOverridesOneSlot(t *testing.T) {
	sp := validSpec()
	sp.Topology = TopoMSMW
	sp.NPS, sp.FPS = 4, 1
	custom := attack.Reversed{Factor: -7}
	sp.LiveWorkerAttack = custom
	sp.ServerAttack = AttackSpec{Name: attack.NameReversed}
	cfg, err := Materialize(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WorkerAttack != custom {
		t.Errorf("live worker attack not used: %#v", cfg.WorkerAttack)
	}
	if got, ok := cfg.ServerAttack.(attack.Reversed); !ok || got.Factor != -100 {
		t.Errorf("declarative server attack dropped: %#v", cfg.ServerAttack)
	}
}

// TestAttackSeedSplit pins the seed-0 convention: a stochastic server attack
// without its own seed derives its stream by splitting the worker attack's
// generator, exactly as the paper's attack experiments construct it.
func TestAttackSeedSplit(t *testing.T) {
	sp := validSpec()
	sp.Topology = TopoMSMW
	sp.NPS, sp.FPS = 4, 1
	sp.WorkerAttack = AttackSpec{Name: attack.NameRandom, Seed: 42}
	sp.ServerAttack = AttackSpec{Name: attack.NameRandom}
	cfg, err := Materialize(sp)
	if err != nil {
		t.Fatal(err)
	}

	refRNG := tensor.NewRNG(42)
	refWorker := attack.NewRandom(refRNG, 1.0)
	refServer := attack.NewRandom(refRNG.Split(), 1.0)

	honest := tensor.New(6)
	for _, pair := range []struct {
		name     string
		got, ref attack.Attack
	}{
		{"worker", cfg.WorkerAttack, refWorker},
		{"server", cfg.ServerAttack, refServer},
	} {
		// Random fills the vector it is handed: each side gets its own.
		gotV, _ := pair.got.Apply(honest.Clone(), nil)
		refV, _ := pair.ref.Apply(honest.Clone(), nil)
		if !reflect.DeepEqual(gotV, refV) {
			t.Errorf("%s attack stream diverges from the split construction", pair.name)
		}
	}
}
