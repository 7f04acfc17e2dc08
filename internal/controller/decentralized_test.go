package controller

import (
	"errors"
	"testing"

	"garfield/internal/scenario"
)

// decentralizedManifest is five peers, one of them declared Byzantine; peer
// i is the pair (Workers[i], Servers[i]).
func decentralizedManifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := Parse([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	m.Spec.Topology, m.Spec.NPS, m.Spec.FPS = scenario.TopoDecentralized, 0, 0
	m.Servers = []string{"a:2", "b:2", "c:2", "d:2", "e:2"}
	return m
}

func TestDecentralizedManifestValidates(t *testing.T) {
	if err := decentralizedManifest(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecentralizedManifestErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Manifest)
		is     error
	}{
		{"server halves missing", func(m *Manifest) { m.Servers = nil }, ErrManifest},
		{"one peer", func(m *Manifest) { m.Spec.NW, m.Workers, m.Servers = 1, m.Workers[:1], m.Servers[:1] }, scenario.ErrSpec},
		{"quorum unsatisfiable", func(m *Manifest) { m.Spec.FW = 2 }, scenario.ErrSpec}, // q = 3 < 2f+1 = 5
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := decentralizedManifest(t)
			tt.mutate(m)
			if err := m.Validate(); !errors.Is(err, tt.is) {
				t.Fatalf("err = %v, want %v", err, tt.is)
			}
		})
	}
}

func TestDecentralizedCommands(t *testing.T) {
	m := decentralizedManifest(t)
	cmds := m.Commands("m.json")
	if len(cmds) != 5 {
		t.Fatalf("commands = %d, want one per peer", len(cmds))
	}
	for i, c := range cmds {
		// Each peer is one process, launched as its server half; the last
		// fw=1 peer is declared Byzantine and only serves.
		if c.Role != RoleServer || c.Index != i || c.Addr != m.Servers[i] || c.Drives != (i < 4) {
			t.Fatalf("command %d = %+v", i, c)
		}
	}
	if _, err := Start(m, RoleWorker, 0, nil); !errors.Is(err, ErrManifest) {
		t.Fatalf("a decentralized worker-only node must be refused, err = %v", err)
	}
}
