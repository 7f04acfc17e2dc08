package core_test

import (
	"runtime"
	"testing"

	"garfield/internal/attack"
	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/model"
	"garfield/internal/sgd"
	"garfield/internal/sim"
	"garfield/internal/testutil"
)

// allocConfig is a live (non-deterministic) SSMW deployment at d = 10,250
// (1024 inputs x 10 classes + biases), n = 7, f = 1 under the reversed attack
// — at the parent every round of it allocated n + f + 1 d-sized vectors: a
// gradient per worker, the attack's output and the request's model snapshot.
func allocConfig(t *testing.T) core.Config {
	t.Helper()
	train, test, err := data.Generate(data.SyntheticSpec{
		Name: "alloc-lock", Dim: 1024, Classes: 10, Train: 280, Test: 40,
		Separation: 1.5, Noise: 0.6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := model.NewLinearSoftmax(1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Arch: arch, Train: train, Test: test,
		BatchSize: 8,
		NW:        7, FW: 1,
		WorkerAttack: attack.Reversed{Factor: -100},
		Rule:         gar.NameMedian,
		LR:           sgd.Constant(0.1),
		Seed:         3,
	}
}

// TestSteadyStateRoundAllocatesNoVector is the allocation lock on the pooled
// reply path: after five warm-up rounds, a round's TotalAlloc — averaged over
// one RunSSMW call, so the call's own fixed cost (aggregator, accuracy
// evaluation) is spread thin — stays below one d-sized vector. It runs once
// over the live wiring, where rpc.Server's serving loop releases the reply
// vectors, and once over the simulator's, where sim.Wiring does.
func TestSteadyStateRoundAllocatesNoVector(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("under the race detector sync.Pool drops a share of its Puts on purpose")
	}
	for _, tc := range []struct {
		name   string
		wiring func() core.Wiring
	}{
		{"live", func() core.Wiring { return nil }},
		{"sim", func() core.Wiring { return sim.New(sim.Config{Seed: 3}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := allocConfig(t)
			var c *core.Cluster
			var err error
			if w := tc.wiring(); w != nil {
				c, err = core.NewClusterWith(cfg, w)
			} else {
				c, err = core.NewCluster(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.RunSSMW(core.RunOptions{Iterations: 5}); err != nil {
				t.Fatal(err)
			}
			const rounds = 40
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.RunSSMW(core.RunOptions{Iterations: rounds}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
			vector := uint64(8 * cfg.Arch.Dim())
			t.Logf("%d B/round, one vector is %d B", perRound, vector)
			if perRound >= vector {
				t.Fatalf("a steady-state round allocates %d B, want less than one d-sized vector (%d B)", perRound, vector)
			}
		})
	}
}

// TestRoundFixedCostIndependentOfWorkers is the object-count lock on the whole
// pull path: a steady-state live SSMW round — request frame, fan-out, serving
// loops, batch draws, gradients, replies, aggregation, update — leaves at most
// 12 objects behind at nw = 17, and within one of what it leaves at nw = 5.
// The count is the slope between a 20-round and a 60-round RunSSMW call, so
// the call's own fixed cost cancels. It is taken on one P, as
// testing.AllocsPerRun takes its counts: with several, what sync.Pool (the
// vector pool) allocates for its per-P queues depends on which P a release
// lands on.
func TestRoundFixedCostIndependentOfWorkers(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRound := func(nw, fw int) float64 {
		cfg := allocConfig(t)
		cfg.NW, cfg.FW = nw, fw
		c, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		mallocs := func(rounds int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.RunSSMW(core.RunOptions{Iterations: rounds}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(10) // dials, sizes every buffer, passes one epoch boundary
		short, long := mallocs(20), mallocs(60)
		return float64(long-short) / 40
	}
	few, many := perRound(5, 1), perRound(17, 3)
	t.Logf("objects per round: %.2f at nw = 5, %.2f at nw = 17", few, many)
	if many > 12 {
		t.Fatalf("a steady-state round allocates %.2f objects at nw = 17, want <= 12", many)
	}
	if d := many - few; d > 1 || d < -1 {
		t.Fatalf("a round's object count grows with the fleet: %.2f at nw = 5, %.2f at nw = 17", few, many)
	}
}

// msmwAllocConfig is allocConfig replicated the way the msmw_mlp100k
// benchmark workload is: nw = 9 of which 2 Byzantine, nps = 4 of which 1
// Byzantine, both attacks live, first-q quorums on the in-memory transport.
func msmwAllocConfig(t *testing.T) core.Config {
	cfg := allocConfig(t)
	cfg.NW, cfg.FW, cfg.NPS, cfg.FPS = 9, 2, 4, 1
	cfg.ServerAttack = attack.Reversed{Factor: -100}
	return cfg
}

// TestMSMWRoundFixedCost is the allocation lock on the replicated round: a
// benchmark-shaped run of five RunMSMW calls of ten rounds each leaves at most
// 35 objects and less than one d-sized vector of bytes per round behind —
// every call's own fixed cost included, so the aggregators, the reply lists
// and the round's fan-out must all outlive a call, and the workers' replies
// and the Byzantine server's must all come back to the pools.
func TestMSMWRoundFixedCost(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := msmwAllocConfig(t)
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func() {
		if _, err := c.RunMSMW(core.RunOptions{Iterations: 10}); err != nil {
			t.Fatal(err)
		}
	}
	run() // dials, sizes every buffer and aggregator
	const calls, rounds = 5, 5 * 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / rounds
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	vector := uint64(8 * cfg.Arch.Dim())
	t.Logf("%.2f objects, %d B per round; one vector is %d B", objects, bytes, vector)
	if objects > 35 {
		t.Errorf("a replicated round allocates %.2f objects, want <= 35", objects)
	}
	if bytes >= vector {
		t.Errorf("a replicated round allocates %d B, want less than one d-sized vector (%d B)", bytes, vector)
	}
}

// TestRunCallsReuseAggregators: a second Run* call aggregates with the very
// Aggregators the first one built, for every driven replica.
func TestRunCallsReuseAggregators(t *testing.T) {
	c, err := core.NewCluster(msmwAllocConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunMSMW(core.RunOptions{Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	honest := c.Roster().HonestServers()
	type pair struct{ grad, model *core.Aggregator }
	first := make([]pair, len(honest))
	for k, r := range honest {
		g, m := c.CachedAggregators(r)
		if g == nil || m == nil {
			t.Fatalf("replica %d: no aggregators cached after a run", r)
		}
		first[k] = pair{g, m}
	}
	if _, err := c.RunMSMW(core.RunOptions{Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	for k, r := range honest {
		if g, m := c.CachedAggregators(r); g != first[k].grad || m != first[k].model {
			t.Errorf("replica %d: the second run built new aggregators", r)
		}
	}
}
