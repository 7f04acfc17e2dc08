package scenario

import (
	"errors"
	"strings"
	"testing"

	"garfield/internal/core"
	"garfield/internal/gar"
)

// chaosValidSpec returns a minimal spec that passes Validate, for the
// error-path table to mutate.
func chaosValidSpec() Spec {
	m, d := demoTask("validate", 1)
	return Spec{
		Topology: TopoMSMW,
		NW:       9, FW: 2,
		NPS: 4, FPS: 1,
		Rule:  gar.NameMedian,
		Model: m, Dataset: d, BatchSize: 32,
		Seed: 1, Iterations: 20,
	}
}

// TestSpecValidationErrorPaths is the table-driven error-path suite: every
// invalid fault kind, the n >= g(f) resilience requirements per topology,
// async constraints, and the byz-server bounds — asserting on the error
// substrings users actually see.
func TestSpecValidationErrorPaths(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		// Topology and shape.
		{"empty topology", func(sp *Spec) { sp.Topology = "" }, "topology is required"},
		{"unknown topology", func(sp *Spec) { sp.Topology = "ring" }, `unknown topology "ring"`},
		{"zero workers", func(sp *Spec) { sp.NW = 0 }, "nw=0"},
		{"fw >= nw", func(sp *Spec) { sp.FW = 9 }, "fw=9 of nw=9"},
		{"fps >= nps", func(sp *Spec) { sp.FPS = 4 }, "fps=4 of nps=4"},
		{"msmw single replica", func(sp *Spec) { sp.NPS, sp.FPS = 1, 0 }, "msmw needs nps >= 2"},

		{"decentralized sync contract with byzantine nodes", func(sp *Spec) {
			sp.Topology, sp.NPS, sp.FPS = TopoDecentralized, 0, 0
			sp.NonIID, sp.SyncQuorum = true, true
		}, "contract pull cannot complete"},

		// Execution engine.
		{"unknown engine", func(sp *Spec) { sp.Engine = "quantum" }, `unknown engine "quantum"`},
		{"sim needs deterministic", func(sp *Spec) { sp.Engine = EngineSim }, "requires deterministic mode"},
		{"sim with fault schedule", func(sp *Spec) {
			sp.Engine, sp.Deterministic, sp.SyncQuorum = EngineSim, true, true
			sp.Faults = []Fault{{After: 5, Kind: FaultCrashWorker, Node: 0}}
		}, "does not support fault schedules"},
		{"sim knobs on the live engine", func(sp *Spec) { sp.SimLatencyMS = 1 }, "require engine"},

		// GAR resilience requirements, n >= g(f), per topology shape.
		{"krum requirement ssmw", func(sp *Spec) {
			sp.Topology, sp.NPS, sp.FPS = TopoSSMW, 0, 0
			sp.Rule, sp.NW, sp.FW = gar.NameKrum, 6, 2 // krum needs n >= 2f+3 = 7
		}, "resilience requirement violated"},
		{"bulyan requirement msmw quorum", func(sp *Spec) {
			sp.Rule, sp.NW, sp.FW = gar.NameBulyan, 9, 2 // q = n-f = 7 < 4f+3 = 11
		}, "resilience requirement violated"},
		{"model rule requirement", func(sp *Spec) {
			sp.ModelRule = gar.NameBulyan // qps = 3 < 4*1+3
		}, `model_rule "bulyan"`},
		{"unknown rule", func(sp *Spec) { sp.Rule = "meen" }, "unknown rule"},
		{"empty rule", func(sp *Spec) { sp.Rule = "" }, "rule is required"},

		// Async constraints.
		{"async on decentralized", func(sp *Spec) {
			sp.Topology, sp.Async = TopoDecentralized, true
		}, "async supports topologies"},
		{"async with sync quorum", func(sp *Spec) {
			sp.Async, sp.SyncQuorum = true, true
		}, "contradicts sync_quorum"},
		{"async staleness without async", func(sp *Spec) {
			sp.StalenessBound = 2
		}, "require async"},
		{"async with non-q GAR", func(sp *Spec) {
			// Async collects q = n - f = 7; bulyan needs 4f+3 = 11.
			sp.Topology, sp.NPS, sp.FPS = TopoSSMW, 0, 0
			sp.Async, sp.Rule = true, gar.NameBulyan
		}, "resilience requirement violated"},

		// Attacks and Byzantine servers.
		{"unknown worker attack", func(sp *Spec) {
			sp.WorkerAttack = AttackSpec{Name: "gaslight"}
		}, "unknown attack"},
		{"unknown byz mode", func(sp *Spec) {
			sp.ServerByzMode = "creative"
		}, `unknown server_byz_mode "creative"`},
		{"byz mode without fps", func(sp *Spec) {
			sp.FPS = 0
			sp.ServerByzMode = core.ByzModeEquivocate
		}, "needs fps >= 1"},

		// Task shape.
		{"unknown model kind", func(sp *Spec) { sp.Model.Kind = "transformer" }, "unknown model kind"},
		{"dim mismatch", func(sp *Spec) { sp.Model.In = 32 }, "model input dim 32 != dataset dim 64"},
		{"zero batch", func(sp *Spec) { sp.BatchSize = 0 }, "batch_size=0"},
		{"zero iterations", func(sp *Spec) { sp.Iterations = 0 }, "iterations=0"},

		// Fault schedule: every invalid kind and bound.
		{"unknown fault kind", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: "meteor-strike"}}
		}, `unknown kind "meteor-strike"`},
		{"fault after out of range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 20, Kind: FaultCrashWorker, Node: 0}}
		}, "after=20 outside [1, 20)"},
		{"crash-server node range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultCrashServer, Node: 4}}
		}, "server 4 of 4"},
		{"crash-worker node range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultCrashWorker, Node: 9}}
		}, "worker 9 of 9"},
		{"delay-worker needs delay", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultDelayWorker, Node: 0}}
		}, "needs delay_ms > 0"},
		{"slow-worker needs delay", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultSlowWorker, Node: 0}}
		}, "needs delay_ms > 0"},
		{"partition empty group", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultPartition, GroupA: []string{"server-0"}}}
		}, "non-empty group_a and group_b"},
		{"partition bad node name", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultPartition,
				GroupA: []string{"node-1"}, GroupB: []string{"worker-0"}}}
		}, `bad node name "node-1"`},
		{"partition node out of range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultPartition,
				GroupA: []string{"worker-12"}, GroupB: []string{"server-0"}}}
		}, `node "worker-12" out of range`},
		{"partition overlapping groups", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultPartition,
				GroupA: []string{"worker-1"}, GroupB: []string{"worker-1"}}}
		}, "both sides of the partition"},
		{"corrupt-link node range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultCorruptLink, Node: 9}}
		}, "worker 9 of 9"},
		{"corrupt-link server target range", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultCorruptLink, Node: 4, Target: "server"}}
		}, "server 4 of 4"},
		{"corrupt-link bad target", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultCorruptLink, Node: 0, Target: "moon"}}
		}, `target "moon"`},
		{"reorder-link bad prob", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultReorderLink, Node: 0, Prob: 1.5}}
		}, "prob 1.5 not in [0, 1]"},
		{"byz-server outside byzantine tail", func(sp *Spec) {
			// nps=4 fps=1: only replica 3 is a declared adversary slot,
			// so at most fs servers can ever be flipped Byzantine.
			sp.Faults = []Fault{{After: 5, Kind: FaultByzServer, Node: 1, Mode: core.ByzModeRandom}}
		}, "not a declared-Byzantine replica (the last fps=1 of the initial nps=4)"},
		{"byz-server without fps", func(sp *Spec) {
			sp.FPS = 0
			sp.Faults = []Fault{{After: 5, Kind: FaultByzServer, Node: 3, Mode: core.ByzModeRandom}}
		}, "byz-server needs fps >= 1"},
		{"byz-server unknown mode", func(sp *Spec) {
			sp.Faults = []Fault{{After: 5, Kind: FaultByzServer, Node: 3, Mode: "chaotic-evil"}}
		}, `unknown byz-server mode "chaotic-evil"`},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sp := chaosValidSpec()
			tc.mutate(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the spec; want error containing %q", tc.wantSub)
			}
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("err = %v, not an ErrSpec", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %q, want substring %q", err.Error(), tc.wantSub)
			}
		})
	}
}

// TestSpecValidationAcceptsChaosKinds pins the happy paths of the new fault
// kinds and their JSON round trip.
func TestSpecValidationAcceptsChaosKinds(t *testing.T) {
	sp := chaosValidSpec()
	sp.ServerByzMode = core.ByzModeEquivocate
	sp.Faults = []Fault{
		{After: 2, Kind: FaultPartition,
			GroupA: []string{"server-0", "server-1"}, GroupB: []string{"worker-7", "worker-8"}},
		{After: 4, Kind: FaultHeal},
		{After: 6, Kind: FaultCorruptLink, Node: 8, Prob: 0.5},
		{After: 8, Kind: FaultReorderLink, Node: 7, Target: "worker"},
		{After: 10, Kind: FaultCorruptLink, Node: 1, Target: "server"},
		{After: 12, Kind: FaultByzServer, Node: 3, Mode: core.ByzModeRandom},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sp.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped spec fails validation: %v", err)
	}
	if len(back.Faults) != len(sp.Faults) || back.Faults[0].GroupA[1] != "server-1" ||
		back.Faults[5].Mode != core.ByzModeRandom {
		t.Fatalf("fault schedule did not survive the JSON round trip: %+v", back.Faults)
	}
}
