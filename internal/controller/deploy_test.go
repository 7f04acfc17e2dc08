package controller

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"garfield/internal/core"
	"garfield/internal/metrics"
	"garfield/internal/scenario"
	"garfield/internal/transport"
)

// testSpec is a small linear task on nw workers (fw of them declared
// Byzantine); callers adjust the topology-specific fields.
func testSpec(topology string, nw, fw int, seed uint64) scenario.Spec {
	return scenario.Spec{
		Topology: topology, NW: nw, FW: fw, Rule: "median",
		Model:     scenario.ModelSpec{Kind: scenario.ModelLinear, In: 16, Classes: 3},
		Dataset:   scenario.DatasetSpec{Dim: 16, Classes: 3, Train: 450, Test: 150, Separation: 1.5, Noise: 0.6, Seed: seed},
		BatchSize: 16,
		LR:        scenario.LRSpec{Kind: scenario.LRConstant, Base: 0.5},
		Seed:      seed, Iterations: 15,
		PullTimeoutMS: 20000,
	}
}

// manifestFor assigns addrs to the spec's nodes, workers first, and
// validates the result.
func manifestFor(t *testing.T, sp scenario.Spec, addrs []string) *Manifest {
	t.Helper()
	m := &Manifest{Spec: sp, Workers: addrs[:sp.NW], Servers: addrs[sp.NW:]}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// memAddrs names n endpoints of an in-memory network.
func memAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "mem:" + strconv.Itoa(i)
	}
	return addrs
}

// deploy starts one node per process of the manifest's launch plan on the
// network — goroutine-per-node, each with its own cluster, exactly as
// separate processes would — and returns them in plan order.
func deploy(t *testing.T, m *Manifest, network transport.Network) []*Node {
	t.Helper()
	var nodes []*Node
	for _, c := range m.Commands("") {
		n, err := Start(m, c.Role, c.Index, network)
		if err != nil {
			t.Fatalf("start %s %d: %v", c.Role, c.Index, err)
		}
		t.Cleanup(n.Close)
		nodes = append(nodes, n)
	}
	return nodes
}

// trainAll runs every driving node's training loop concurrently and returns
// their results in node order (nil for nodes that only serve).
func trainAll(t *testing.T, nodes []*Node) []*core.Result {
	t.Helper()
	results, errs := make([]*core.Result, len(nodes)), make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if !n.Drives() {
			continue
		}
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			results[i], errs[i] = n.Train()
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d (%s %d): %v", i, nodes[i].role, nodes[i].index, err)
		}
	}
	return results
}

// curveCSV renders an accuracy curve the way the sweep artifacts do:
// shortest round-trip decimals, so equal bytes mean equal floats.
func curveCSV(s *metrics.Series) string {
	var b strings.Builder
	b.WriteString("iteration,accuracy\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%s,%s\n", strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
	}
	return b.String()
}

// TestDeployedRunMatchesInProcess is the equivalence the deployment path
// exists for: a deterministic spec run in one process (scenario.RunOn on the
// in-memory cluster) and the same spec run as one node per endpoint over
// loopback TCP end with bit-identical parameters at the first replica and a
// byte-identical accuracy curve — a node is the same program, differently
// wired. The MSMW spec drives one replica (the other is declared Byzantine
// and only serves): several driven replicas keep lockstep in process through
// the round's stage boundaries, which separate processes do not share, so
// their interleaving — not their code — would differ.
func TestDeployedRunMatchesInProcess(t *testing.T) {
	ssmw := testSpec(scenario.TopoSSMW, 5, 1, 31)
	ssmw.WorkerAttack = scenario.AttackSpec{Name: "reversed"}
	ssmw.Compression = "int8"
	msmw := testSpec(scenario.TopoMSMW, 4, 1, 33)
	msmw.NPS, msmw.FPS, msmw.ModelRule = 2, 1, "average"
	msmw.WorkerAttack = scenario.AttackSpec{Name: "reversed"}
	for _, sp := range []scenario.Spec{ssmw, msmw} {
		sp.Deterministic, sp.SyncQuorum, sp.AccEvery = true, true, 5
		t.Run(sp.Topology, func(t *testing.T) {
			local, err := scenario.NewCluster(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			want, err := scenario.RunOn(local, sp)
			if err != nil {
				t.Fatal(err)
			}

			m := manifestFor(t, sp, freeLoopbackPorts(t, sp.NW+max(sp.NPS, 1)))
			nodes := deploy(t, m, transport.TCP{})
			first := nodes[sp.NW] // server 0 follows the workers in the plan
			got := trainAll(t, nodes)[sp.NW]

			if !first.Cluster.Server(0).Params().Equal(local.Server(0).Params()) {
				t.Fatal("first-replica parameters differ between the in-process and the deployed run")
			}
			if g, w := curveCSV(got.Accuracy), curveCSV(want.Accuracy); g != w {
				t.Fatalf("accuracy curves differ:\nin-process:\n%s\ndeployed:\n%s", w, g)
			}
			if got.Updates != want.Updates || got.Wire.ReplyPayloadBytes != want.Wire.ReplyPayloadBytes {
				t.Fatalf("updates %d vs %d, reply payload bytes %d vs %d",
					got.Updates, want.Updates, got.Wire.ReplyPayloadBytes, want.Wire.ReplyPayloadBytes)
			}
		})
	}
}

// TestDeployedRunReusesTheCluster runs across TCP what only the in-process
// cluster could express before nodes ran the shared rounds: a worker attack
// with a codec and a non-linear model, and a Byzantine server mode.
func TestDeployedRunReusesTheCluster(t *testing.T) {
	t.Run("ssmw reversed int8 mlp", func(t *testing.T) {
		sp := testSpec(scenario.TopoSSMW, 5, 1, 41)
		sp.Rule, sp.WorkerAttack, sp.Compression = "krum", scenario.AttackSpec{Name: "reversed"}, "int8"
		sp.Model = scenario.ModelSpec{Kind: scenario.ModelMLP, In: 16, Hidden: 12, Classes: 3}
		sp.Iterations = 60
		nodes := deploy(t, manifestFor(t, sp, freeLoopbackPorts(t, 6)), transport.TCP{})
		res := trainAll(t, nodes)[5]
		if acc := res.Accuracy.Last(); acc < 0.7 {
			t.Fatalf("accuracy under a reversed worker over int8 = %v", acc)
		}
		if ratio := res.Wire.ReplyCompressionRatio(); ratio < 4 {
			t.Fatalf("int8 replies were not compressed on the wire: ratio %v", ratio)
		}
	})
	t.Run("msmw byzantine server", func(t *testing.T) {
		if testing.Short() {
			t.Skip("three replicas over TCP; skipped in -short runs")
		}
		sp := testSpec(scenario.TopoMSMW, 3, 0, 43)
		sp.NPS, sp.FPS, sp.ServerByzMode = 4, 1, core.ByzModeReversed
		nodes := deploy(t, manifestFor(t, sp, freeLoopbackPorts(t, 7)), transport.TCP{})
		for i, res := range trainAll(t, nodes) {
			if nodes[i].Drives() && (res.Updates != sp.Iterations || math.IsNaN(res.Accuracy.Last())) {
				t.Fatalf("replica %d: %d updates, accuracy %v", nodes[i].index, res.Updates, res.Accuracy.Last())
			}
		}
		if nodes[6].Drives() || nodes[6].Cluster.ByzServer(3) == nil {
			t.Fatal("replica 3 must be the serving-only Byzantine one")
		}
	})
}

// TestStartupGateNamesTheMissingNode: with the launcher's startup sleep gone
// the readiness gate is the only startup synchronisation, so a worker that
// never came up must surface there, by name and address, not as a hang or an
// anonymous quorum miss.
func TestStartupGateNamesTheMissingNode(t *testing.T) {
	sp := testSpec(scenario.TopoSSMW, 3, 0, 5)
	sp.PullTimeoutMS = 300
	m := manifestFor(t, sp, memAddrs(4))
	network := transport.NewMem()
	for _, i := range []int{0, 2} { // worker 1 failed to start
		w, err := Start(m, RoleWorker, i, network)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	server, err := Start(m, RoleServer, 0, network)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := server.Train(); err == nil || !strings.Contains(err.Error(), "waiting for worker-1 (mem:1)") {
		t.Fatalf("err = %v, want the gate to name worker-1", err)
	}
}

// TestStartRejectsBadAssignment: a node that is not in the manifest is
// refused before anything is built or bound.
func TestStartRejectsBadAssignment(t *testing.T) {
	m := manifestFor(t, testSpec(scenario.TopoSSMW, 3, 0, 5), memAddrs(4))
	for name, start := range map[string]func() (*Node, error){
		"bad role":          func() (*Node, error) { return Start(m, "director", 0, nil) },
		"worker index high": func() (*Node, error) { return Start(m, RoleWorker, 3, nil) },
		"server index high": func() (*Node, error) { return Start(m, RoleServer, 1, nil) },
		"negative index":    func() (*Node, error) { return Start(m, RoleWorker, -1, nil) },
	} {
		if _, err := start(); !errors.Is(err, ErrManifest) {
			t.Errorf("%s: err = %v, want ErrManifest", name, err)
		}
	}
}
