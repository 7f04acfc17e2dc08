package core

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// buildPeerRing wires n PeerNodes over an in-memory network and returns the
// nodes plus a cleanup function.
func buildPeerRing(t *testing.T, n int, nonIID bool) []*PeerNode {
	t.Helper()
	arch, train, _ := testTask(t)
	var shards []*data.Dataset
	var err error
	if nonIID {
		shards, err = data.PartitionByLabel(train, n)
	} else {
		shards, err = data.PartitionIID(train, n, 3)
	}
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMem()
	client := rpc.NewClient(net)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "peer-" + strconv.Itoa(i)
	}
	init := arch.InitParams(tensor.NewRNG(3))
	nodes := make([]*PeerNode, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(arch, shards[i], 16, uint64(i)+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := sgd.New(sgd.Constant(0.5))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(ServerConfig{
			Arch: arch, Init: init, Optimizer: opt,
			Client: client, Workers: addrs, Peers: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewPeerNode(w, s)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := rpc.Serve(net, addrs[i], node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		nodes[i] = node
	}
	return nodes
}

func TestNewPeerNodeValidation(t *testing.T) {
	if _, err := NewPeerNode(nil, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestPeerNodeHandlerDispatch(t *testing.T) {
	nodes := buildPeerRing(t, 3, false)
	node := nodes[0]
	params := node.Server().Params()

	// Gradient requests hit the worker half.
	resp := node.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params})
	if !resp.OK {
		t.Fatal("gradient request declined")
	}
	// Model requests hit the server half.
	resp = node.Handle(rpc.Request{Kind: rpc.KindGetModel})
	if !resp.OK {
		t.Fatal("model request declined")
	}
	// Aggr-grad declined before first publish.
	if resp := node.Handle(rpc.Request{Kind: rpc.KindGetAggrGrad}); resp.OK {
		t.Fatal("aggr-grad served before publish")
	}
}

// TestPeerRingTrains drives three peer nodes through concurrent
// DecentralizedStep loops (the cross-process path, minus TCP) and checks
// they all learn.
func TestPeerRingTrains(t *testing.T) {
	const n, iters = 3, 40
	nodes := buildPeerRing(t, n, false)
	errCh := make(chan error, n)
	for _, node := range nodes {
		node := node
		go func() {
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err := node.DecentralizedStep(ctx, i, n, 0, gar.NameMedian, gar.NameMedian, 1)
				cancel()
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	_, _, test := testTask(t)
	for i, node := range nodes {
		acc, err := node.Server().ComputeAccuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.75 {
			t.Fatalf("peer %d accuracy = %v", i, acc)
		}
	}
}

// TestPeerContractRetries verifies the retry-based contract: one peer
// publishes late, and the others' pulls succeed anyway within the deadline.
func TestPeerContractRetries(t *testing.T) {
	const n = 3
	nodes := buildPeerRing(t, n, false)
	// Node 2 publishes its aggregated gradient only after a delay.
	go func() {
		time.Sleep(150 * time.Millisecond)
		g := tensor.Filled(nodes[2].Server().Params().Dim(), 0.5)
		nodes[2].Server().SetLatestAggrGrad(g)
	}()
	// Nodes 0 and 1 publish immediately and pull a full quorum of 3.
	for i := 0; i < 2; i++ {
		g := tensor.Filled(nodes[i].Server().Params().Dim(), 0.1)
		nodes[i].Server().SetLatestAggrGrad(g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	agg, err := NewAggregator(gar.NameMedian, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	aggr, err := contractPullWithRetry(ctx, nodes[0].Server(), n, agg)
	if err != nil {
		t.Fatal(err)
	}
	// All three published values were pulled: the median of {0.1, 0.1, 0.5}.
	if !aggr.Equal(tensor.Filled(aggr.Dim(), 0.1)) {
		t.Fatalf("aggregate = %v..., want the median 0.1", aggr[:1])
	}
}

// TestPeerContractDeadline: when a peer never publishes, the retry loop must
// surface the context deadline instead of spinning forever.
func TestPeerContractDeadline(t *testing.T) {
	const n = 3
	nodes := buildPeerRing(t, n, false)
	nodes[0].Server().SetLatestAggrGrad(tensor.Filled(nodes[0].Server().Params().Dim(), 1))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	agg, err := NewAggregator(gar.NameMedian, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = contractPullWithRetry(ctx, nodes[0].Server(), n, agg); err == nil {
		t.Fatal("expected deadline error")
	}
}

// TestPeerStepNonIIDWithContract runs the full step including the contract
// rounds on label-sharded data.
func TestPeerStepNonIIDWithContract(t *testing.T) {
	const n, iters = 3, 30
	nodes := buildPeerRing(t, n, true)
	errCh := make(chan error, n)
	for _, node := range nodes {
		node := node
		go func() {
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err := node.DecentralizedStep(ctx, i, n, 0, gar.NameMedian, gar.NameMedian, 2)
				cancel()
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	_, _, test := testTask(t)
	acc, err := nodes[0].Server().ComputeAccuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("non-IID peer accuracy = %v", acc)
	}
}
