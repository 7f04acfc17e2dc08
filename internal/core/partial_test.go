package core

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/transport"
)

// partWiring hosts one peer of a cluster on a network shared with the
// wirings of the other peers — what a node process is to a deployment
// (internal/controller), minus the address book and the sockets.
type partWiring struct {
	net    transport.Network
	hosted map[string]bool
}

func (w partWiring) Serve(addr string, h rpc.Handler) (io.Closer, error) {
	if !w.hosted[addr] {
		return nil, nil
	}
	return rpc.Serve(w.net, addr, h)
}

func (w partWiring) NewCaller(self string) rpc.Caller { return rpc.NewPooledClientAs(w.net, self) }

func (w partWiring) Clock() Clock { return WallClock() }

// buildPeerRing builds n clusters of the same decentralized deployment (all
// honest, q = n so every contract pull needs every peer), each hosting — and
// therefore driving — exactly one peer. Models are exchanged under the
// average: the peers share no stage boundary, so a peer's model pull (between
// its update and its write) may catch every other peer outside that window,
// and the default median of one moved model and n - 1 unmoved ones discards
// the step — a ring the scheduler never overlaps never learns. Under the
// average a step counts whenever it is pulled.
func buildPeerRing(t *testing.T, n int, nonIID bool, contractSteps int, timeout time.Duration) []*Cluster {
	t.Helper()
	cfg := baseConfig(t)
	cfg.NW, cfg.FW, cfg.NPS, cfg.FPS = n, 0, n, 0
	cfg.SyncQuorum, cfg.NonIID, cfg.ContractSteps, cfg.PullTimeout = true, nonIID, contractSteps, timeout
	cfg.ModelRule = gar.NameAverage
	net := transport.NewMem()
	ring := make([]*Cluster, n)
	for i := range ring {
		c, err := NewClusterWith(cfg, partWiring{net: net, hosted: map[string]bool{
			"worker-" + strconv.Itoa(i): true, "server-" + strconv.Itoa(i): true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		ring[i] = c
	}
	return ring
}

// runRing runs the decentralized protocol on every given cluster
// concurrently, as separate processes would, and returns their results.
func runRing(t *testing.T, ring []*Cluster, iters int) []*Result {
	t.Helper()
	results, errs := make([]*Result, len(ring)), make([]error, len(ring))
	var wg sync.WaitGroup
	for i, c := range ring {
		wg.Add(1)
		go func(i int, c *Cluster) {
			defer wg.Done()
			results[i], errs[i] = c.RunDecentralized(RunOptions{Iterations: iters})
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	return results
}

// TestPeerRingTrains drives three peers, one cluster each, through the shared
// decentralized round (the cross-process path, minus TCP) and checks they
// all learn, each observing its own replica.
func TestPeerRingTrains(t *testing.T) {
	ring := buildPeerRing(t, 3, false, 0, 20*time.Second)
	for i, res := range runRing(t, ring, 40) {
		if acc := res.Accuracy.Last(); acc < 0.75 {
			t.Fatalf("peer %d accuracy = %v", i, acc)
		}
		if res.Updates != 40 || ring[i].Server(i).Step() != 40 {
			t.Fatalf("peer %d: %d updates, hosted replica at step %d", i, res.Updates, ring[i].Server(i).Step())
		}
		if other := (i + 1) % 3; ring[i].Server(other).Step() != 0 {
			t.Fatalf("cluster %d drove replica %d, which another process hosts", i, other)
		}
	}
}

// TestPeerStepNonIIDWithContract runs the full round including two contract
// steps on label-sharded data.
func TestPeerStepNonIIDWithContract(t *testing.T) {
	ring := buildPeerRing(t, 3, true, 2, 20*time.Second)
	if acc := runRing(t, ring, 30)[0].Accuracy.Last(); acc < 0.6 {
		t.Fatalf("non-IID peer accuracy = %v", acc)
	}
}

// TestPeerContractRetries holds two of three peers back until the first has
// had its contract pull declined and repeated: across processes the other
// peers' publish stage is not ordered before this peer's pull, so a quorum
// miss there is transient — where a full in-process round rightly fails on
// the first miss (TestSSMWFailsWhenWorkerCrashes).
func TestPeerContractRetries(t *testing.T) {
	ring := buildPeerRing(t, 3, true, 1, 20*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := ring[0].RunDecentralized(RunOptions{Iterations: 5})
		done <- err
	}()
	// 3 gradient pulls, then 3 calls per declined contract pull: 12 calls
	// mean the pull has been repeated at least twice.
	for deadline := time.Now().Add(10 * time.Second); ring[0].WireStats().Calls < 12; {
		select {
		case err := <-done:
			t.Fatalf("peer 0 finished before its peers published: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("peer 0 never repeated its contract pull")
		}
		time.Sleep(time.Millisecond)
	}
	runRing(t, ring[1:], 5)
	if err := <-done; err != nil {
		t.Fatalf("peer 0: %v", err)
	}
}

// TestPeerContractDeadline: when the peers never publish, the repetition
// ends at the round's pull deadline with an error naming the phase.
func TestPeerContractDeadline(t *testing.T) {
	ring := buildPeerRing(t, 3, true, 1, 200*time.Millisecond)
	_, err := ring[0].RunDecentralized(RunOptions{Iterations: 1})
	if !errors.Is(err, rpc.ErrQuorum) || !strings.Contains(err.Error(), "iteration 0 replica 0 contract pull") {
		t.Fatalf("err = %v, want a quorum miss naming the contract pull", err)
	}
}

// TestRoundNeedsAHostedReplica: a process that hosts none of the replicas a
// round drives (a worker, a declared-Byzantine replica) has no round to run.
func TestRoundNeedsAHostedReplica(t *testing.T) {
	c, err := NewClusterWith(baseConfig(t), partWiring{net: transport.NewMem(), hosted: map[string]bool{"worker-0": true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunSSMW(RunOptions{Iterations: 1}); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "hosts none") {
		t.Fatalf("err = %v", err)
	}
}
