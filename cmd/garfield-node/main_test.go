package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"garfield/internal/controller"
	"garfield/internal/scenario"
)

// freePorts reserves n distinct loopback addresses by binding and releasing
// ephemeral ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return addrs
}

// taskSpec is the small linear task of the end-to-end deployments.
func taskSpec(topology string, nw int, seed uint64) scenario.Spec {
	return scenario.Spec{
		Topology: topology, NW: nw, Rule: "median",
		Model:     scenario.ModelSpec{Kind: scenario.ModelLinear, In: 16, Classes: 3},
		Dataset:   scenario.DatasetSpec{Dim: 16, Classes: 3, Train: 450, Test: 150, Separation: 1, Noise: 1, Seed: seed},
		BatchSize: 16,
		LR:        scenario.LRSpec{Kind: scenario.LRConstant, Base: 0.5},
		Seed:      seed, Iterations: 30, AccEvery: 10,
		PullTimeoutMS: 20000,
	}
}

// writeManifest stores the manifest (valid or not) where nodes can load it.
func writeManifest(t *testing.T, m controller.Manifest) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ssmwManifest(t *testing.T) controller.Manifest {
	addrs := freePorts(t, 4)
	return controller.Manifest{Spec: taskSpec(scenario.TopoSSMW, 3, 11), Workers: addrs[:3], Servers: addrs[3:]}
}

// node is one garfield-node process run in a goroutine.
type node struct {
	out strings.Builder
	err error
}

// runNodes executes one garfield-node per (role, index) concurrently — the
// real multi-process communication path, in-process for testability — waits
// for the training nodes to exit on their own, then stops the serving ones.
func runNodes(t *testing.T, path string, plan []controller.NodeCommand) []*node {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	nodes := make([]*node, len(plan))
	var drivers, servers sync.WaitGroup
	for i, c := range plan {
		n, wg := &node{}, &servers
		if c.Drives {
			wg = &drivers
		}
		nodes[i] = n
		wg.Add(1)
		go func(c controller.NodeCommand) {
			defer wg.Done()
			n.err = run(ctx, c.Args, &n.out)
		}(c)
	}
	finished := make(chan struct{})
	go func() { drivers.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(90 * time.Second):
		t.Error("training nodes did not finish in time")
	}
	stop()
	drivers.Wait()
	servers.Wait()
	for i, n := range nodes {
		if n.err != nil {
			t.Fatalf("%s %d: %v\n%s", plan[i].Role, plan[i].Index, n.err, n.out.String())
		}
	}
	return nodes
}

// deployFromFile loads the manifest back the way a node does and runs its
// whole launch plan.
func deployFromFile(t *testing.T, m controller.Manifest) ([]controller.NodeCommand, []*node) {
	t.Helper()
	path := writeManifest(t, m)
	loaded, err := controller.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	plan := loaded.Commands(path)
	return plan, runNodes(t, path, plan)
}

func TestParseFlagsValidation(t *testing.T) {
	path := writeManifest(t, ssmwManifest(t))
	for name, args := range map[string][]string{
		"bad role":         {"-manifest", path, "-role", "director"},
		"no role":          {"-manifest", path},
		"no manifest":      {"-role", "worker"},
		"missing manifest": {"-manifest", path + ".nope", "-role", "worker"},
	} {
		if err := run(context.Background(), args, &strings.Builder{}); !errors.Is(err, controller.ErrManifest) {
			t.Errorf("%s: err = %v, want ErrManifest", name, err)
		}
	}
	// The task flags of the flag-per-field node are gone, not ignored.
	if err := run(context.Background(), []string{"-manifest", path, "-role", "worker", "-nw", "3"}, &strings.Builder{}); err == nil {
		t.Fatal("an unknown flag must be refused")
	}
}

func TestServerRejectsWorkerCountMismatch(t *testing.T) {
	m := ssmwManifest(t)
	m.Workers = m.Workers[:2]
	err := run(context.Background(), []string{"-manifest", writeManifest(t, m), "-role", "server"}, &strings.Builder{})
	if !errors.Is(err, controller.ErrManifest) || !strings.Contains(err.Error(), "workers lists 2 addresses, spec.nw is 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestStartWorkerBadIndex(t *testing.T) {
	err := run(context.Background(), []string{"-manifest", writeManifest(t, ssmwManifest(t)), "-role", "worker", "-index", "9"}, &strings.Builder{})
	if !errors.Is(err, controller.ErrManifest) || !strings.Contains(err.Error(), "-index 9 out of range [0, 3)") {
		t.Fatalf("err = %v", err)
	}
}

// TestEndToEndSSMWOverTCP deploys 3 worker nodes and an SSMW server over
// loopback TCP.
func TestEndToEndSSMWOverTCP(t *testing.T) {
	_, nodes := deployFromFile(t, ssmwManifest(t))
	out := nodes[3].out.String()
	idx := strings.LastIndex(out, "final accuracy ")
	if idx < 0 {
		t.Fatalf("missing final accuracy:\n%s", out)
	}
	acc, err := strconv.ParseFloat(strings.Fields(out[idx+len("final accuracy "):])[0], 64)
	if err != nil {
		t.Fatalf("cannot parse accuracy from %q: %v", out[idx:], err)
	}
	if acc < 0.7 {
		t.Fatalf("end-to-end accuracy = %v", acc)
	}
	if !strings.Contains(out, "iteration   10  accuracy") {
		t.Fatalf("missing the accuracy curve:\n%s", out)
	}
}

// TestEndToEndDecentralizedOverTCP deploys three decentralized peers, each
// one process serving both its halves, on label-sharded data with the
// retried contract step.
func TestEndToEndDecentralizedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second TCP e2e; skipped in -short runs")
	}
	t.Parallel() // each finished replica lingers controller.Linger; overlap the waits
	addrs := freePorts(t, 6)
	sp := taskSpec(scenario.TopoDecentralized, 3, 17)
	sp.NonIID, sp.ContractSteps, sp.Iterations, sp.AccEvery = true, 1, 15, 0
	plan, nodes := deployFromFile(t, controller.Manifest{Spec: sp, Workers: addrs[:3], Servers: addrs[3:]})
	if len(plan) != 3 {
		t.Fatalf("plan = %+v, want one process per peer", plan)
	}
	for i, n := range nodes {
		if !strings.Contains(n.out.String(), "done: final accuracy") {
			t.Fatalf("peer %d did not finish:\n%s", i, n.out.String())
		}
	}
}

// TestEndToEndMSMWOverTCP deploys workers plus two MSMW server replicas over
// TCP, each replica its own node, exchanging models through the get_models
// pull.
func TestEndToEndMSMWOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second TCP e2e; skipped in -short runs")
	}
	t.Parallel() // each finished replica lingers controller.Linger; overlap the waits
	addrs := freePorts(t, 5)
	sp := taskSpec(scenario.TopoMSMW, 3, 13)
	sp.NPS, sp.Iterations, sp.AccEvery = 2, 20, 0
	plan, nodes := deployFromFile(t, controller.Manifest{Spec: sp, Workers: addrs[:3], Servers: addrs[3:]})
	for i, n := range nodes {
		if plan[i].Drives && !strings.Contains(n.out.String(), "final accuracy") {
			t.Fatalf("replica %d missing accuracy:\n%s", plan[i].Index, n.out.String())
		}
	}
}
