package core

import (
	"testing"

	"garfield/internal/attack"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// detConfig returns a small replicated deployment in deterministic mode.
func detConfig(t *testing.T) Config {
	t.Helper()
	train, test, err := data.Generate(data.SyntheticSpec{
		Name: "det", Dim: 8, Classes: 4, Train: 160, Test: 40,
		Separation: 1.0, Noise: 1.0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := model.NewLinearSoftmax(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Arch: arch, Train: train, Test: test,
		BatchSize: 8,
		NW:        5, FW: 1,
		NPS: 3, FPS: 0,
		Rule:          "median",
		SyncQuorum:    true,
		Deterministic: true,
		Seed:          5,
	}
}

// TestDeterministicMSMWBitIdentical is the core determinism contract: two
// MSMW runs of the same deterministic config end with bit-identical model
// state on every replica — the property the scenario sweep's reproducible
// artifacts rest on.
func TestDeterministicMSMWBitIdentical(t *testing.T) {
	run := func() []tensor.Vector {
		c, err := NewCluster(detConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.RunMSMW(RunOptions{Iterations: 8}); err != nil {
			t.Fatal(err)
		}
		params := make([]tensor.Vector, c.Servers())
		for i := range params {
			params[i] = c.Server(i).Params()
		}
		return params
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("replica %d: parameters differ between identical runs", i)
		}
	}
}

// TestDeterministicByzantineServerBitIdentical extends the contract to a
// stochastic Byzantine server: its random-model attack must draw once per
// step (served identically to every puller), keeping two runs bit-identical.
func TestDeterministicByzantineServerBitIdentical(t *testing.T) {
	run := func() tensor.Vector {
		cfg := detConfig(t)
		cfg.NPS, cfg.FPS = 3, 1
		cfg.ServerAttack = attack.NewRandom(tensor.NewRNG(9), 1.0)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.RunMSMW(RunOptions{Iterations: 8}); err != nil {
			t.Fatal(err)
		}
		return c.Server(0).Params()
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Error("stochastic Byzantine server broke run-to-run determinism")
	}
}

// TestDeterministicWorkerCachesPerStep: every replica pulling the same step
// with the same parameters receives the same gradient estimate — the paper's
// one-broadcast-per-step semantics, which the worker's memo gives every mode.
func TestDeterministicWorkerCachesPerStep(t *testing.T) {
	cfg := detConfig(t)
	shards, err := data.PartitionIID(cfg.Train, 1, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(cfg.Arch, shards[0], cfg.BatchSize, cfg.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	params := cfg.Arch.InitParams(tensor.NewRNG(cfg.Seed))

	pull := func(step uint32, p tensor.Vector) tensor.Vector {
		resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Step: step, Vec: p})
		if !resp.OK {
			t.Fatalf("pull at step %d declined", step)
		}
		return resp.Vec
	}
	g1 := pull(0, params)
	g2 := pull(0, params)
	if !g1.Equal(g2) {
		t.Error("same step, same params: replies differ")
	}
	// A new step advances the sampler: fresh estimate.
	g3 := pull(1, params)
	if g1.Equal(g3) {
		t.Error("new step served the cached reply")
	}
	// Same step number but evolved parameters (a protocol segment after a
	// fault restarts numbering): the stale cache must not be replayed.
	other := params.Clone()
	other[0] += 0.5
	g4 := pull(1, other)
	if g3.Equal(g4) {
		t.Error("changed params served the cached reply")
	}
}
