package core

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// countingModel counts Gradient calls.
type countingModel struct {
	model.Model
	calls atomic.Int64
}

func (m *countingModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	m.calls.Add(1)
	return m.Model.Gradient(params, batch)
}

// TestShardedRoundOneGradientPerWorker: in a live sharded round every shard
// owner pulls every worker at the same parameters, and each worker computes
// its estimate once for all of them — nw gradients per round, not one per
// (owner, worker) pair.
func TestShardedRoundOneGradientPerWorker(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS, cfg.Shards = 4, 0, 4
	cfg.SyncQuorum = true // every owner hears from every worker
	arch := &countingModel{Model: cfg.Arch}
	cfg.Arch = arch
	c := newTestCluster(t, cfg)
	const rounds = 3
	res, err := c.RunSharded(RunOptions{Iterations: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardRounds != rounds {
		t.Fatalf("%d of %d rounds committed", res.ShardRounds, rounds)
	}
	if got, want := arch.calls.Load(), int64(rounds*cfg.NW); got != want {
		t.Fatalf("%d Gradient calls over %d rounds of %d workers and %d shard owners, want %d",
			got, rounds, cfg.NW, cfg.Shards, want)
	}
}

// gradientRecord is one Gradient call: the parameters it was asked about and
// what it returned, both copied.
type gradientRecord struct {
	params, grad tensor.Vector
}

// ledgerModel records every Gradient call.
type ledgerModel struct {
	model.Model
	mu      sync.Mutex
	records []gradientRecord
}

func (m *ledgerModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	g, err := m.Model.Gradient(params, batch)
	if err == nil {
		m.mu.Lock()
		m.records = append(m.records, gradientRecord{params.Clone(), g.Clone()})
		m.mu.Unlock()
	}
	return g, err
}

func (m *ledgerModel) calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// latestAt returns the gradient of the most recent call at exactly params.
func (m *ledgerModel) latestAt(params tensor.Vector) (tensor.Vector, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.records) - 1; i >= 0; i-- {
		if sameBits(m.records[i].params, params) {
			return m.records[i].grad, true
		}
	}
	return nil, false
}

// heldModel holds every Gradient call at params at until gate closes,
// announcing the first on entered.
type heldModel struct {
	model.Model
	at            tensor.Vector
	entered, gate chan struct{}
	once          sync.Once
}

func (m *heldModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	if sameBits(params, m.at) {
		m.once.Do(func() { close(m.entered) })
		<-m.gate
	}
	return m.Model.Gradient(params, batch)
}

// TestWorkerBroadcastsOneEstimatePerStep pins the worker's memo to the
// paper's broadcast semantics — one estimate per (step, params), whoever
// pulls it and in whatever order — and to an exact key. Run it under -race:
// the first case pulls concurrently.
func TestWorkerBroadcastsOneEstimatePerStep(t *testing.T) {
	arch, train, _ := testTask(t)
	base := arch.InitParams(tensor.NewRNG(3))
	base[len(base)-1] = 0 // a coordinate whose sign bit a forger can flip
	newWorker := func(t *testing.T, opts ...WorkerOption) (*Worker, *ledgerModel) {
		t.Helper()
		m := &ledgerModel{Model: arch}
		w, err := NewWorker(m, train, 8, 1, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return w, m
	}
	pull := func(t *testing.T, w *Worker, req rpc.Request) rpc.Response {
		t.Helper()
		resp := w.Handle(req)
		if !resp.OK {
			t.Fatalf("pull at step %d declined", req.Step)
		}
		return resp
	}
	// served checks that v is, bit for bit, the latest estimate the worker
	// computed at exactly params.
	served := func(t *testing.T, m *ledgerModel, params, v tensor.Vector) {
		t.Helper()
		want, ok := m.latestAt(params)
		if !ok {
			t.Fatal("a reply was served at parameters nothing was computed at")
		}
		if !sameBits(v, want) {
			t.Fatal("a reply is not the estimate computed at the puller's own parameters")
		}
	}

	t.Run("equal keys share one estimate", func(t *testing.T) {
		w, m := newWorker(t)
		req := rpc.Request{Kind: rpc.KindGetGradient, Step: 4, Vec: base}
		got := make([]tensor.Vector, 2)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := w.Handle(req)
				if resp.OK && resp.FreeVec {
					got[i] = resp.Vec
				}
			}()
		}
		wg.Wait()
		if got[0] == nil || got[1] == nil {
			t.Fatal("a concurrent pull was declined or not given its own vector")
		}
		if &got[0][0] == &got[1][0] {
			t.Fatal("two pullers were handed one backing array")
		}
		for i := range got[0] {
			if math.Float64bits(got[0][i]) != math.Float64bits(got[1][i]) {
				t.Fatalf("coordinate %d differs between two pullers of one key", i)
			}
		}
		if n := m.calls(); n != 1 {
			t.Fatalf("two pullers of one key drew %d estimates, want 1", n)
		}
		served(t, m, base, got[0])
	})

	t.Run("other params get their own estimate", func(t *testing.T) {
		w, m := newWorker(t)
		other := base.Clone()
		other[0] += 0.25
		a := pull(t, w, rpc.Request{Kind: rpc.KindGetGradient, Step: 4, Vec: base})
		b := pull(t, w, rpc.Request{Kind: rpc.KindGetGradient, Step: 4, Vec: other})
		if n := m.calls(); n != 2 {
			t.Fatalf("pullers at two params drew %d estimates, want 2", n)
		}
		served(t, m, base, a.Vec)
		served(t, m, other, b.Vec)
	})

	t.Run("another key does not wait for a computing key", func(t *testing.T) {
		m := &ledgerModel{Model: arch}
		entered, gate := make(chan struct{}), make(chan struct{})
		held := &heldModel{Model: m, at: base, entered: entered, gate: gate}
		w, err := NewWorker(held, train, 8, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := rpc.Request{Kind: rpc.KindGetGradient, Step: 4, Vec: base}
		got := make([]rpc.Response, 2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); got[0] = w.Handle(req) }()
		<-entered // the first pull of base is computing, and held there
		wg.Add(1)
		go func() { defer wg.Done(); got[1] = w.Handle(req) }()
		other := base.Clone()
		other[0] += 0.25
		done := make(chan rpc.Response, 1)
		go func() { done <- w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Step: 4, Vec: other}) }()
		select {
		case b := <-done:
			if !b.OK {
				t.Fatal("the pull of another key was declined")
			}
			served(t, m, other, b.Vec)
		case <-time.After(10 * time.Second):
			close(gate)
			t.Fatal("the pull of another key waited for the held key's computation")
		}
		close(gate)
		wg.Wait()
		if !got[0].OK || !got[1].OK || !sameBits(got[0].Vec, got[1].Vec) {
			t.Fatal("two pullers of the held key were not served one estimate")
		}
		served(t, m, base, got[0].Vec)
		if n := m.calls(); n != 2 {
			t.Fatalf("pulls of two keys drew %d estimates, want 2", n)
		}
	})

	t.Run("a crafted key is never served another's estimate", func(t *testing.T) {
		w, m := newWorker(t)
		// Equal to the honest params under ==, different in one sign bit:
		// only an exact key tells them apart.
		crafted := base.Clone()
		crafted[len(crafted)-1] = math.Copysign(0, -1)
		honest := rpc.Request{Kind: rpc.KindGetGradient, Step: 9, Vec: base}
		first := pull(t, w, honest)
		served(t, m, base, first.Vec)
		forged := pull(t, w, rpc.Request{Kind: rpc.KindGetGradient, Step: 9, Vec: crafted})
		if n := m.calls(); n != 2 {
			t.Fatalf("the crafted pull drew %d estimates in all, want a recompute (2)", n)
		}
		served(t, m, crafted, forged.Vec)
		again := pull(t, w, honest)
		if n := m.calls(); n != 3 {
			t.Fatalf("the honest pull after the crafted one drew %d estimates in all, want 3", n)
		}
		served(t, m, base, again.Vec)
	})

	t.Run("disjoint ranges share one gradient", func(t *testing.T) {
		w, m := newWorker(t)
		d := len(base)
		mid := d / 2
		req := rpc.Request{Kind: rpc.KindGetGradient, Step: 2, Vec: base}
		lo, hi := req, req
		lo.Lo, lo.Hi = 0, uint32(mid)
		hi.Lo, hi.Hi = uint32(mid), uint32(d)
		left, right := pull(t, w, lo), pull(t, w, hi)
		full := pull(t, w, req)
		if n := m.calls(); n != 1 {
			t.Fatalf("three pulls of one key over two ranges drew %d estimates, want 1", n)
		}
		joined := append(left.Vec.Clone(), right.Vec...)
		if !sameBits(joined, full.Vec) {
			t.Fatal("the ranged replies do not tile the full reply")
		}
		served(t, m, base, full.Vec)
	})

	t.Run("top-k residual advances once per range", func(t *testing.T) {
		w, _ := newWorker(t, WithCompression(compress.EncTopK, 4))
		req := rpc.Request{Kind: rpc.KindGetGradient, Step: 1, Accept: compress.EncTopK, Vec: base, Lo: 0, Hi: uint32(len(base) / 2)}
		a := pull(t, w, req)
		norm := w.compressionResidualNorm()
		if norm == 0 {
			t.Fatal("a top-k pull left no residual; the check would be vacuous")
		}
		b := pull(t, w, req)
		if got := w.compressionResidualNorm(); got != norm {
			t.Fatalf("a repeated pull of one (key, range) moved the residual: %v -> %v", norm, got)
		}
		if !bytes.Equal(a.Payload, b.Payload) || !a.FreePayload || !b.FreePayload {
			t.Fatal("two pullers of one (key, range) were not served borrowed copies of one payload")
		}
		other := req
		other.Lo, other.Hi = req.Hi, uint32(len(base))
		pull(t, w, other)
		if got := w.compressionResidualNorm(); got == norm {
			t.Fatal("the disjoint range did not advance its own slice of the residual")
		}
	})
}
