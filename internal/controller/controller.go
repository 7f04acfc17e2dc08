// Package controller implements Garfield's Controller module (Section 3.2):
// it deploys a scenario.Spec across processes. A manifest is the spec plus
// an address book — which host:port serves worker i and server replica i —
// and every node process materializes the same spec into the same
// core.Cluster, differing only in wiring: it listens for the one node it
// hosts and reaches the others through the address book (node.go). The
// package also expands a manifest into the per-node command lines that
// deploy it, and a local launcher runs those as child processes for
// single-machine deployments (the paper launches over SSH; the command lines
// are what one would run on each remote host).
package controller

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"garfield/internal/scenario"
)

// Manifest describes one multi-process deployment: what to run and where
// each node listens. For the decentralized topology peer i is the pair
// (Workers[i], Servers[i]): one process serving its worker half and its
// server half on two ports.
type Manifest struct {
	// Spec is the scenario every node materializes.
	Spec scenario.Spec `json:"spec"`
	// Workers and Servers list node addresses (host:port): Workers[i] serves
	// worker i, Servers[i] server replica i.
	Workers []string `json:"workers"`
	Servers []string `json:"servers"`
}

// ErrManifest reports an invalid manifest or node assignment. An invalid
// spec inside a manifest reports scenario.ErrSpec.
var ErrManifest = errors.New("controller: invalid manifest")

// Node roles accepted by Start and garfield-node's -role flag.
const (
	RoleWorker = "worker"
	RoleServer = "server"
)

// Parse decodes and validates a JSON manifest.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Load reads and parses the manifest file at path.
func Load(path string) (*Manifest, error) {
	if path == "" {
		return nil, fmt.Errorf("%w: no manifest file given", ErrManifest)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	return Parse(raw)
}

// nps returns the number of server replicas the spec materializes.
func (m *Manifest) nps() int {
	if m.Spec.Topology == scenario.TopoDecentralized {
		return m.Spec.NW
	}
	return max(m.Spec.NPS, 1) // single-server topologies materialize one server
}

// Validate checks the spec (topology, fleet shape against the rules' n >=
// g(f) floors, task, attacks — everything scenario.Spec.Validate checks),
// that the spec is one a set of processes can run, and that the address book
// names every node exactly once.
func (m *Manifest) Validate() error {
	sp := m.Spec
	if err := sp.Validate(); err != nil {
		return err
	}
	switch {
	case len(sp.Faults) > 0:
		return fmt.Errorf("%w: spec.faults: fault schedules inject through the in-process transport", ErrManifest)
	case sp.Engine == scenario.EngineSim:
		return fmt.Errorf("%w: spec.engine %q runs in one process", ErrManifest, sp.Engine)
	case sp.Async:
		return fmt.Errorf("%w: spec.async: the bounded-staleness engine drives every replica from one process", ErrManifest)
	case sp.Topology == scenario.TopoSharded:
		return fmt.Errorf("%w: spec.topology %q: all-or-abort rounds need the in-process stage barrier", ErrManifest, sp.Topology)
	}
	if len(m.Workers) != sp.NW {
		return fmt.Errorf("%w: workers lists %d addresses, spec.nw is %d", ErrManifest, len(m.Workers), sp.NW)
	}
	if len(m.Servers) != m.nps() {
		return fmt.Errorf("%w: servers lists %d addresses, the spec materializes %d server replicas",
			ErrManifest, len(m.Servers), m.nps())
	}
	seen := make(map[string]bool, len(m.Workers)+len(m.Servers))
	for _, a := range append(append([]string(nil), m.Workers...), m.Servers...) {
		if !strings.Contains(a, ":") {
			return fmt.Errorf("%w: address %q is not host:port", ErrManifest, a)
		}
		if seen[a] {
			return fmt.Errorf("%w: duplicate address %q", ErrManifest, a)
		}
		seen[a] = true
	}
	return nil
}

// drives reports whether the node runs a training loop — and exits when it
// is done — or only answers pulls until it is stopped: workers, declared-
// Byzantine replicas and the unused replicas of single-server topologies are
// passive. It must agree with the replica sets core's steppers drive; a
// mismatch surfaces as an error from the first round, not a wrong result.
func (m *Manifest) drives(role string, i int) bool {
	if role != RoleServer {
		return false
	}
	switch sp := m.Spec; sp.Topology {
	case scenario.TopoDecentralized:
		return i < sp.NW-sp.FW
	case scenario.TopoMSMW:
		return i < sp.NPS-sp.FPS
	case scenario.TopoCrashTolerant:
		return true
	default:
		return i == 0
	}
}

// NodeCommand is one process the deployment needs: the garfield-node
// argument vector to run on the host owning Addr.
type NodeCommand struct {
	// Role and Index name the node; Addr is its listen address.
	Role  string
	Index int
	Addr  string
	// Drives is false for nodes that serve until stopped (see drives).
	Drives bool
	// Args is the garfield-node argument list (excluding the binary name).
	Args []string
}

// Commands expands the manifest stored at path into one command per process
// — the launch plan the paper's controller executes over SSH. Decentralized
// peers are one process each, launched as their server half.
func (m *Manifest) Commands(path string) []NodeCommand {
	var cmds []NodeCommand
	add := func(role string, addrs []string) {
		for i, addr := range addrs {
			cmds = append(cmds, NodeCommand{
				Role: role, Index: i, Addr: addr, Drives: m.drives(role, i),
				Args: []string{"-manifest", path, "-role", role, "-index", strconv.Itoa(i)},
			})
		}
	}
	if m.Spec.Topology != scenario.TopoDecentralized {
		add(RoleWorker, m.Workers)
	}
	add(RoleServer, m.Servers)
	return cmds
}
