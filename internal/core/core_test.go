package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"garfield/internal/attack"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
)

// testTask returns a small learnable task: 16-dim Gaussian mixture,
// 3 classes, linear softmax.
func testTask(t *testing.T) (model.Model, *data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Generate(data.SyntheticSpec{
		Name: "core-test", Dim: 16, Classes: 3, Train: 600, Test: 200,
		Separation: 1.5, Noise: 0.6, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := model.NewLinearSoftmax(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	return arch, train, test
}

func baseConfig(t *testing.T) Config {
	arch, train, test := testTask(t)
	return Config{
		Arch: arch, Train: train, Test: test,
		BatchSize: 16,
		NW:        7, FW: 1,
		NPS: 4, FPS: 1,
		Rule: gar.NameMedian,
		LR:   sgd.Constant(0.5),
		Seed: 7,
	}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestAggregateHelper(t *testing.T) {
	out, err := Aggregate(gar.NameAverage, 0, []tensor.Vector{{2}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("out = %v", out)
	}
	if _, err := Aggregate("nope", 0, []tensor.Vector{{1}}); !errors.Is(err, gar.ErrUnknownRule) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Aggregate(gar.NameMedian, 3, []tensor.Vector{{1}, {2}}); !errors.Is(err, gar.ErrRequirement) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := baseConfig(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil arch", func(c *Config) { c.Arch = nil }},
		{"no rule", func(c *Config) { c.Rule = "" }},
		{"fw >= nw", func(c *Config) { c.FW = c.NW }},
		{"negative fw", func(c *Config) { c.FW = -1 }},
		{"fps >= nps", func(c *Config) { c.FPS = c.NPS }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"zero nw", func(c *Config) { c.NW = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewCluster(cfg); !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
		})
	}
}

func TestVanillaConverges(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 0, 0
	c := newTestCluster(t, cfg)
	res, err := c.RunVanilla(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("vanilla final accuracy = %v, want >= 0.8", acc)
	}
	if res.Updates != 80 {
		t.Fatalf("updates = %d", res.Updates)
	}
	if res.UpdatesPerSec() <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestSSMWConvergesWithoutAttack(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	res, err := c.RunSSMW(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("ssmw final accuracy = %v", acc)
	}
}

func TestSSMWToleratesReversedAttack(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW = 2
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	c := newTestCluster(t, cfg)
	res, err := c.RunSSMW(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("ssmw under attack accuracy = %v, want >= 0.8", acc)
	}
}

func TestVanillaFailsUnderReversedAttack(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW = 2
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	c := newTestCluster(t, cfg)
	res, err := c.RunVanilla(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The reversed-and-amplified attack must prevent learning under plain
	// averaging (Figure 5b's vanilla curve).
	if acc := res.Accuracy.Last(); acc > 0.6 {
		t.Fatalf("vanilla under attack accuracy = %v, should fail to learn", acc)
	}
}

func TestAggregaThorConverges(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NW, cfg.FW = 9, 2 // multikrum needs nw-0 >= 2f+3
	c := newTestCluster(t, cfg)
	res, err := c.RunAggregaThor(RunOptions{Iterations: 80, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("aggregathor accuracy = %v", acc)
	}
}

func TestCrashTolerantConverges(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 0, 0
	c := newTestCluster(t, cfg)
	res, err := c.RunCrashTolerant(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("crash-tolerant accuracy = %v", acc)
	}
}

func TestCrashTolerantSurvivesPrimaryCrash(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 0, 0
	c := newTestCluster(t, cfg)
	// First half of training.
	if _, err := c.RunCrashTolerant(RunOptions{Iterations: 40, AccEvery: 0}); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(0) // kill the primary
	res, err := c.RunCrashTolerant(RunOptions{Iterations: 40, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("post-failover accuracy = %v", acc)
	}
	// The observed primary must now be replica 1.
	if live := c.liveServers(c.Roster(), nil); len(live) == 0 || live[0] != 1 {
		t.Fatalf("live replicas = %v, want replica 1 first", live)
	}
}

func TestCrashTolerantAllReplicasDown(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS = 2, 0
	c := newTestCluster(t, cfg)
	c.CrashServer(0)
	c.CrashServer(1)
	if _, err := c.RunCrashTolerant(RunOptions{Iterations: 5}); err == nil {
		t.Fatal("expected failure with all replicas crashed")
	}
}

func TestCrashTolerantFailsUnderByzantineAttack(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW = 2
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	c := newTestCluster(t, cfg)
	res, err := c.RunCrashTolerant(RunOptions{Iterations: 80, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc > 0.6 {
		t.Fatalf("crash-tolerant under Byzantine attack accuracy = %v, should fail", acc)
	}
}

func TestMSMWConverges(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	res, err := c.RunMSMW(RunOptions{Iterations: 80, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.8 {
		t.Fatalf("msmw accuracy = %v", acc)
	}
}

func TestMSMWToleratesByzantineServersAndWorkers(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 1, 1
	cfg.WorkerAttack = attack.Reversed{Factor: -100}
	cfg.ServerAttack = attack.NewRandom(tensor.NewRNG(5), 10)
	c := newTestCluster(t, cfg)
	res, err := c.RunMSMW(RunOptions{Iterations: 100, AccEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("msmw under dual attack accuracy = %v, want >= 0.75", acc)
	}
}

func TestMSMWNeedsReplicas(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS = 1, 0
	c := newTestCluster(t, cfg)
	if _, err := c.RunMSMW(RunOptions{Iterations: 5}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

func TestMSMWToleratesStraggler(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW = 1 // quorum nw-fw = 6 of 7
	c := newTestCluster(t, cfg)
	c.DelayWorker(6, time.Hour) // worker 6 never answers in time
	res, err := c.RunMSMW(RunOptions{Iterations: 40, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("msmw with straggler accuracy = %v", acc)
	}
}

// TestSSMWFailsWhenWorkerCrashes pins how a lockstep round fails, for every
// topology in both scheduler nestings: one replica is cut off from one worker
// under a synchronous quorum, so exactly that replica's gradient pull misses.
// The run's error must name the topology, iteration, replica and phase once
// and still unwrap to rpc.ErrQuorum; the failing replica must not have
// applied anything; where the failing phase ends a stage (decentralized) no
// replica may have entered the next one; and after Close no goroutine of the
// failed round or the cluster is left behind.
func TestSSMWFailsWhenWorkerCrashes(t *testing.T) {
	tests := []struct {
		name     string
		nw, nps  int
		run      func(*Cluster, RunOptions) (*Result, error)
		cut      int    // replica partitioned from worker 0
		want     string // error prefix
		noUpdate bool   // no replica may have updated its model
	}{
		{"ssmw", 7, 4, (*Cluster).RunSSMW, 0, "core: ssmw iteration 0 replica 0 gradients: ", true},
		{"crash-tolerant", 7, 4, (*Cluster).RunCrashTolerant, 0, "core: crash-tolerant iteration 0 replica 0 gradients+update: ", false},
		{"msmw", 7, 4, (*Cluster).RunMSMW, 1, "core: msmw iteration 0 replica 1 gradients: ", false},
		{"decentralized", 5, 5, (*Cluster).RunDecentralized, 1, "core: decentralized iteration 0 replica 1 gradients: ", true},
	}
	for _, tc := range tests {
		for _, det := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deterministic=%v", tc.name, det), func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := baseConfig(t)
				cfg.NW, cfg.NPS, cfg.FPS = tc.nw, tc.nps, 0
				cfg.SyncQuorum, cfg.Deterministic = true, det
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				c.Partition([]string{c.ServerAddr(tc.cut)}, []string{c.WorkerAddr(0)})
				_, err = tc.run(c, RunOptions{Iterations: 5})
				if !errors.Is(err, rpc.ErrQuorum) {
					t.Fatalf("err = %v, want ErrQuorum", err)
				}
				if !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("err = %q, want prefix %q", err, tc.want)
				}
				for r := 0; r < c.Servers(); r++ {
					if step := c.Server(r).Step(); step != 0 && (r == tc.cut || tc.noUpdate) {
						t.Fatalf("replica %d applied %d updates in the failed round", r, step)
					}
				}
				c.Close()
				if after := goroutinesAfterClose(before); after > before {
					t.Fatalf("%d goroutines before the cluster, %d after the failed run and Close", before, after)
				}
			})
		}
	}
}

// TestCloseReleasesEveryGoroutine: a cluster that trained over the live
// wiring — pooled connections dialled, their watchers running — returns the
// process to its goroutine baseline on Close.
func TestCloseReleasesEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunMSMW(RunOptions{Iterations: 3}); err != nil {
		t.Fatal(err)
	}
	if during := runtime.NumGoroutine(); during <= before {
		t.Fatalf("a live cluster runs no goroutines (%d before, %d during)? the baseline is meaningless", before, during)
	}
	c.Close()
	if after := goroutinesAfterClose(before); after > before {
		t.Fatalf("%d goroutines before NewCluster, %d after Close", before, after)
	}
}

// goroutinesAfterClose reads the goroutine count once it is back to at most
// baseline. Close waits for every goroutine it owns, but a goroutine that has
// signalled its WaitGroup is still counted for the instant it takes to
// unwind, so the read polls briefly; a real leak never drains and is
// reported after a second.
func goroutinesAfterClose(baseline int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestDecentralizedConvergesIID(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NW, cfg.FW = 5, 1
	cfg.NPS, cfg.FPS = 5, 0 // one server per node
	c := newTestCluster(t, cfg)
	res, err := c.RunDecentralized(RunOptions{Iterations: 60, AccEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.75 {
		t.Fatalf("decentralized accuracy = %v", acc)
	}
}

func TestDecentralizedConvergesNonIIDWithContract(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NW, cfg.FW = 5, 1
	cfg.NPS = 5
	cfg.NonIID = true
	cfg.ContractSteps = 2
	c := newTestCluster(t, cfg)
	res, err := c.RunDecentralized(RunOptions{Iterations: 80, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.Last(); acc < 0.7 {
		t.Fatalf("decentralized non-IID accuracy = %v", acc)
	}
}

func TestDecentralizedNeedsMatchingCounts(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NW, cfg.NPS = 6, 3
	c := newTestCluster(t, cfg)
	if _, err := c.RunDecentralized(RunOptions{Iterations: 5}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

func TestRunOptionsValidation(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	if _, err := c.RunVanilla(RunOptions{Iterations: 0}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.RunVanilla(RunOptions{Iterations: 5, AccEvery: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerHandler(t *testing.T) {
	arch, train, _ := testTask(t)
	w, err := NewWorker(arch, train, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	params := arch.InitParams(tensor.NewRNG(1))
	resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params})
	if !resp.OK || len(resp.Vec) != arch.Dim() {
		t.Fatalf("gradient response = %+v", resp)
	}
	if resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient}); resp.OK {
		t.Fatal("gradient request without model must be declined")
	}
	if resp := w.Handle(rpc.Request{Kind: rpc.KindGetModel}); resp.OK {
		t.Fatal("worker must decline model requests")
	}
	if resp := w.Handle(rpc.Request{Kind: rpc.KindPing}); !resp.OK {
		t.Fatal("worker must answer pings")
	}
	// Malformed params (wrong dimension) must be declined, not crash.
	if resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: tensor.New(3)}); resp.OK {
		t.Fatal("wrong-dimension model must be declined")
	}
}

func TestWorkerConstructorValidation(t *testing.T) {
	arch, train, _ := testTask(t)
	if _, err := NewWorker(nil, train, 8, 1, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewWorker(arch, train, 0, 1, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewWorker(arch, &data.Dataset{}, 8, 1, nil); err == nil {
		t.Fatal("expected error for empty shard")
	}
}

func TestByzantineWorkerCorruptsReply(t *testing.T) {
	arch, train, _ := testTask(t)
	w, err := NewWorker(arch, train, 8, 1, attack.Reversed{Factor: -1})
	if err != nil {
		t.Fatal(err)
	}
	honest, err := NewWorker(arch, train, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	params := arch.InitParams(tensor.NewRNG(1))
	rb := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params})
	rh := honest.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params})
	if !rb.OK || !rh.OK {
		t.Fatal("both should reply")
	}
	// Byzantine reply should differ wildly from honest direction.
	dot, err := rb.Vec.Dot(rh.Vec)
	if err != nil {
		t.Fatal(err)
	}
	if dot >= 0 {
		t.Fatalf("reversed gradient not anti-correlated: dot = %v", dot)
	}
}

func TestDroppingWorkerOmits(t *testing.T) {
	arch, train, _ := testTask(t)
	w, err := NewWorker(arch, train, 8, 1, attack.Drop{})
	if err != nil {
		t.Fatal(err)
	}
	params := arch.InitParams(tensor.NewRNG(1))
	if resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params}); resp.OK {
		t.Fatal("dropping worker must omit its reply")
	}
}

func TestServerHandlerAndState(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	s := c.Server(0)

	resp := s.Handle(rpc.Request{Kind: rpc.KindGetModel})
	if !resp.OK || len(resp.Vec) != cfg.Arch.Dim() {
		t.Fatalf("model response = %+v", resp)
	}
	// No aggregated gradient published yet.
	if resp := s.Handle(rpc.Request{Kind: rpc.KindGetAggrGrad}); resp.OK {
		t.Fatal("aggr-grad must be declined before first publish")
	}
	s.SetLatestAggrGrad(tensor.Filled(cfg.Arch.Dim(), 1))
	if resp := s.Handle(rpc.Request{Kind: rpc.KindGetAggrGrad}); !resp.OK {
		t.Fatal("aggr-grad must be served after publish")
	}
	if resp := s.Handle(rpc.Request{Kind: rpc.KindPing}); !resp.OK {
		t.Fatal("server must answer pings")
	}
	if resp := s.Handle(rpc.Request{Kind: rpc.KindGetGradient}); resp.OK {
		t.Fatal("server must decline gradient requests")
	}
}

func TestServerUpdateAndWrite(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	s := c.Server(0)
	before := s.Params()
	g := tensor.Filled(cfg.Arch.Dim(), 1)
	if err := s.UpdateModel(g); err != nil {
		t.Fatal(err)
	}
	after := s.Params()
	if before[0] == after[0] {
		t.Fatal("UpdateModel did not change params")
	}
	if s.Step() != 1 {
		t.Fatalf("step = %d", s.Step())
	}
	if err := s.WriteModel(before); err != nil {
		t.Fatal(err)
	}
	if got := s.Params(); got[0] != before[0] {
		t.Fatal("WriteModel did not restore params")
	}
	if err := s.WriteModel(tensor.New(3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerParamsIsCopy(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	s := c.Server(0)
	p := s.Params()
	p[0] = 1e9
	if s.Params()[0] == 1e9 {
		t.Fatal("Params leaked internal state")
	}
}

func TestByzantineServerServesCorruptedModel(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FPS = 1
	cfg.ServerAttack = attack.Reversed{Factor: -100}
	c := newTestCluster(t, cfg)
	honest := c.Server(0).Handle(rpc.Request{Kind: rpc.KindGetModel})
	byz := c.Server(cfg.NPS - 1).Handle(rpc.Request{Kind: rpc.KindGetModel})
	if !honest.OK || !byz.OK {
		t.Fatal("both should serve")
	}
	same := true
	for i := range honest.Vec {
		if honest.Vec[i] != byz.Vec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Byzantine server served honest model")
	}
}

func TestAccuracySeriesMonotoneish(t *testing.T) {
	cfg := baseConfig(t)
	cfg.FW, cfg.FPS = 0, 0
	c := newTestCluster(t, cfg)
	res, err := c.RunVanilla(RunOptions{Iterations: 60, AccEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accuracy.Points) < 5 {
		t.Fatalf("accuracy points = %d", len(res.Accuracy.Points))
	}
	first := res.Accuracy.Points[0].Y
	last := res.Accuracy.Last()
	if last < first {
		t.Fatalf("accuracy regressed: %v -> %v", first, last)
	}
	if last < 0.9 {
		t.Fatalf("final accuracy = %v, want >= 0.9", last)
	}
	// Time series should align with iteration series in length.
	if len(res.AccuracyOverTime.Points) != len(res.Accuracy.Points) {
		t.Fatal("time series length mismatch")
	}
}

func TestBreakdownRecorded(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	res, err := c.RunSSMW(RunOptions{Iterations: 10, AccEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, comm, agg := res.Breakdown.Means()
	if comm <= 0 {
		t.Fatal("communication time not recorded")
	}
	if agg <= 0 {
		t.Fatal("aggregation time not recorded")
	}
}
