package controller

import (
	"context"
	"errors"
	"strings"
	"testing"

	"garfield/internal/scenario"
)

func validManifest() string {
	return `{
		"spec": {
			"topology": "msmw",
			"nw": 5, "fw": 1, "nps": 4, "fps": 1,
			"rule": "median",
			"model": {"kind": "linear", "in": 16, "classes": 3},
			"dataset": {"dim": 16, "classes": 3, "train": 400, "test": 150, "separation": 1, "noise": 1, "seed": 9},
			"batch_size": 16,
			"iterations": 50,
			"seed": 9
		},
		"workers": ["h1:7001", "h2:7002", "h3:7003", "h4:7004", "h5:7005"],
		"servers": ["h6:7000", "h7:7000", "h8:7000", "h9:7000"]
	}`
}

func TestParseValid(t *testing.T) {
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Topology != scenario.TopoMSMW || len(m.Workers) != 5 || len(m.Servers) != 4 {
		t.Fatalf("manifest = %+v", m)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for name, bad := range map[string]string{
		"manifest field": strings.Replace(validManifest(), `"workers":`, `"bogus": 2, "workers":`, 1),
		"spec field":     strings.Replace(validManifest(), `"fw": 1`, `"fw": 1, "bogus": 2`, 1),
		"old schema":     strings.Replace(validManifest(), `"workers":`, `"protocol": "msmw", "workers":`, 1),
	} {
		if _, err := Parse([]byte(bad)); !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{")); !errors.Is(err, ErrManifest) {
		t.Fatalf("err = %v", err)
	}
}

// TestValidateErrors is the must-fail fixture table of the deployment path:
// every row is rejected before any socket opens, by the layer that owns the
// rule (the spec's own validation, or the manifest's address book and
// deployability checks), with an error naming the offending field.
func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Manifest)
		is     error
		names  string
	}{
		{"bad protocol", func(m *Manifest) { m.Spec.Topology = "p2p" }, scenario.ErrSpec, "topology"},
		{"no workers", func(m *Manifest) { m.Workers = nil }, ErrManifest, "workers lists 0"},
		{"no servers", func(m *Manifest) { m.Servers = nil }, ErrManifest, "servers lists 0"},
		{"worker count mismatch", func(m *Manifest) { m.Workers = m.Workers[:4] }, ErrManifest, "spec.nw is 5"},
		{"server count mismatch", func(m *Manifest) { m.Servers = append(m.Servers, "h10:7000") }, ErrManifest, "servers lists 5"},
		{"ssmw multi server", func(m *Manifest) {
			m.Spec.Topology, m.Spec.NPS, m.Spec.FPS = scenario.TopoSSMW, 0, 0
		}, ErrManifest, "servers lists 4"},
		{"msmw one server", func(m *Manifest) { m.Servers, m.Spec.NPS, m.Spec.FPS = m.Servers[:1], 1, 0 }, scenario.ErrSpec, "nps"},
		{"fw too big", func(m *Manifest) { m.Spec.FW = 5 }, scenario.ErrSpec, "fw=5"},
		{"fps too big", func(m *Manifest) { m.Spec.FPS = 4 }, scenario.ErrSpec, "fps=4"},
		{"negative fw", func(m *Manifest) { m.Spec.FW = -1 }, scenario.ErrSpec, "fw=-1"},
		{"bad addr", func(m *Manifest) { m.Workers[0] = "nohostport" }, ErrManifest, `"nohostport"`},
		{"dup addr", func(m *Manifest) { m.Workers[1] = m.Workers[0] }, ErrManifest, `duplicate address "h1:7001"`},
		{"dup addr across lists", func(m *Manifest) { m.Servers[2] = m.Workers[0] }, ErrManifest, `duplicate address "h1:7001"`},
		{"unknown rule", func(m *Manifest) { m.Spec.Rule = "zzz" }, scenario.ErrSpec, `"zzz"`},
		{"rule unsatisfiable", func(m *Manifest) { m.Spec.Rule = "bulyan" }, scenario.ErrSpec, `rule "bulyan"`}, // q=4 < 4f+3=7
		{"model rule unsatisfiable", func(m *Manifest) { m.Spec.ModelRule = "krum" }, scenario.ErrSpec, `model_rule "krum"`},
		{"fault schedule", func(m *Manifest) {
			m.Spec.Faults = []scenario.Fault{{After: 5, Kind: scenario.FaultCrashWorker, Node: 0}}
		}, ErrManifest, "spec.faults"},
		{"sim engine", func(m *Manifest) {
			m.Spec.Engine, m.Spec.Deterministic, m.Spec.SyncQuorum = scenario.EngineSim, true, true
		}, ErrManifest, "spec.engine"},
		{"async engine", func(m *Manifest) { m.Spec.Async = true }, ErrManifest, "spec.async"},
		{"sharded topology", func(m *Manifest) {
			m.Spec.Topology, m.Spec.Shards, m.Spec.FPS = scenario.TopoSharded, 2, 0
		}, ErrManifest, "spec.topology"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := Parse([]byte(validManifest()))
			if err != nil {
				t.Fatal(err)
			}
			tt.mutate(m)
			err = m.Validate()
			if !errors.Is(err, tt.is) || !strings.Contains(err.Error(), tt.names) {
				t.Fatalf("err = %v, want %v naming %q", err, tt.is, tt.names)
			}
		})
	}
}

func TestValidateSSMWQuorum(t *testing.T) {
	// SSMW collects all nw gradients, so bulyan with fw=1 needs nw >= 7.
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	m.Spec.Topology, m.Spec.NPS, m.Spec.FPS, m.Spec.Rule = scenario.TopoSSMW, 0, 0, "bulyan"
	m.Spec.NW, m.Workers = 7, []string{"a:1", "b:1", "c:1", "d:1", "e:1", "f:1", "g:1"}
	m.Servers = []string{"s:1"}
	if err := m.Validate(); err != nil {
		t.Fatalf("7-worker bulyan ssmw should validate: %v", err)
	}
	m.Spec.NW, m.Workers = 6, m.Workers[:6]
	if err := m.Validate(); !errors.Is(err, scenario.ErrSpec) {
		t.Fatalf("6-worker bulyan ssmw must fail: %v", err)
	}
}

func TestCommands(t *testing.T) {
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	cmds := m.Commands("/etc/garfield/m.json")
	if len(cmds) != 9 {
		t.Fatalf("commands = %d, want 9", len(cmds))
	}
	var workers, servers, drivers int
	for _, c := range cmds {
		joined := strings.Join(c.Args, " ")
		if !strings.HasPrefix(joined, "-manifest /etc/garfield/m.json -role "+c.Role+" -index ") || len(c.Args) != 6 {
			t.Fatalf("%s %d args = %q", c.Role, c.Index, joined)
		}
		switch c.Role {
		case RoleWorker:
			workers++
			if c.Drives || c.Addr != m.Workers[c.Index] {
				t.Fatalf("worker command = %+v", c)
			}
		case RoleServer:
			servers++
			// Replica 3 is the declared-Byzantine one: it only serves.
			if c.Drives != (c.Index < 3) || c.Addr != m.Servers[c.Index] {
				t.Fatalf("server command = %+v", c)
			}
		}
		if c.Drives {
			drivers++
		}
	}
	if workers != 5 || servers != 4 || drivers != 3 {
		t.Fatalf("workers=%d servers=%d drivers=%d", workers, servers, drivers)
	}
}

// The address lists live in the manifest, not on the command line: no node
// is handed its peers as arguments, and an SSMW plan drives exactly one node.
func TestCommandsSSMWHasNoPeers(t *testing.T) {
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	m.Spec.Topology, m.Spec.NPS, m.Spec.FPS, m.Servers = scenario.TopoSSMW, 0, 0, m.Servers[:1]
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	drivers := 0
	for _, c := range m.Commands("m.json") {
		for _, addr := range append(append([]string(nil), m.Workers...), m.Servers...) {
			if strings.Contains(strings.Join(c.Args, " "), addr) {
				t.Fatalf("%s %d is handed address %s on its command line: %q", c.Role, c.Index, addr, c.Args)
			}
		}
		if c.Drives {
			drivers++
		}
	}
	if drivers != 1 {
		t.Fatalf("ssmw plan drives %d nodes, want the one server", drivers)
	}
}

func TestLauncherNeedsBinary(t *testing.T) {
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	var l Launcher
	if err := l.Run(context.Background(), m.Commands("m.json")); !errors.Is(err, ErrManifest) {
		t.Fatalf("err = %v", err)
	}
}
