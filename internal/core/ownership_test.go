package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"garfield/internal/attack"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// TestConcurrentRepliesOwnTheirVectors: a live worker gives every reply a
// vector of its own. Replies held unreleased — by two concurrent pullers, over
// several rounds — never share a backing array, and no later reply is handed
// a held one.
func TestConcurrentRepliesOwnTheirVectors(t *testing.T) {
	arch, train, _ := testTask(t)
	w, err := NewWorker(arch, train, 8, 1, attack.Reversed{Factor: -100})
	if err != nil {
		t.Fatal(err)
	}
	params := arch.InitParams(tensor.NewRNG(1))
	pull := func() tensor.Vector {
		resp := w.Handle(rpc.Request{Kind: rpc.KindGetGradient, Vec: params})
		if !resp.OK || !resp.FreeVec || len(resp.Vec) != arch.Dim() {
			t.Errorf("live reply = %+v, want an owned (FreeVec) gradient", resp)
		}
		return resp.Vec
	}
	const pullers, rounds = 2, 8
	held := make([][]tensor.Vector, pullers)
	var wg sync.WaitGroup
	for p := range held {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				held[p] = append(held[p], pull())
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	owner := map[*float64]bool{}
	for _, vs := range held {
		for _, v := range vs {
			if owner[&v[0]] {
				t.Fatal("two unreleased replies share a backing array")
			}
			owner[&v[0]] = true
		}
	}
	// Nothing held is handed out again, however often the worker is asked.
	for i := 0; i < 4*pullers*rounds; i++ {
		v := pull()
		if owner[&v[0]] {
			t.Fatal("a reply reuses a vector that was never released")
		}
		tensor.PutVec(v)
	}
}

// recordingModel remembers, per Gradient call, the batch the worker drew for
// the parameters it was asked about, keyed by the tag the test plants in
// params[0].
type recordingModel struct {
	model.Model
	mu      sync.Mutex
	batches map[float64]data.Batch
}

func (m *recordingModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	// A batch is valid only for the call (data.Batch): the worker refills
	// its slices for the next request, so remembering it means copying it.
	kept := data.Batch{
		Features: append([]tensor.Vector(nil), batch.Features...),
		Labels:   append([]int(nil), batch.Labels...),
	}
	m.mu.Lock()
	m.batches[params[0]] = kept
	m.mu.Unlock()
	return m.Model.Gradient(params, batch)
}

// TestPulledGradientsSurviveBufferReuse: three replicas pull one live worker
// through real rpc.Serve loops and pooled clients, each round a first-1-of-2
// pull against the worker and a decoy that answers at once on even steps (so
// the worker is the cancelled straggler, its reply written to a connection
// nobody reads yet and drained a round later) and declines on odd ones (so
// the worker's reply is the one decoded). Every reply vector on the way is
// borrowed, written and released concurrently; each replica must decode
// exactly the gradient the worker computed for its parameters — arch.Gradient
// on the batch the worker drew for them — bit for bit. Run under -race.
func TestPulledGradientsSurviveBufferReuse(t *testing.T) {
	arch, train, _ := testTask(t)
	rec := &recordingModel{Model: arch, batches: map[float64]data.Batch{}}
	w, err := NewWorker(rec, train, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMem()
	decoyVec := tensor.Filled(arch.Dim(), 0.25)
	decoy := rpc.HandlerFunc(func(req rpc.Request) rpc.Response {
		if req.Step%2 == 1 {
			return rpc.Response{}
		}
		return rpc.Response{OK: true, Vec: borrowCopy(decoyVec), FreeVec: true}
	})
	for addr, h := range map[string]rpc.Handler{"worker": w, "decoy": decoy} {
		srv, err := rpc.Serve(net, addr, h)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}

	const replicas, rounds = 3, 24
	base := arch.InitParams(tensor.NewRNG(1))
	type pulled struct {
		tag float64
		vec tensor.Vector
	}
	got := make([][]pulled, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := rpc.NewPooledClient(net)
			defer client.Close()
			arena := gar.NewReplyArena(2)
			params := base.Clone()
			for step := 0; step < rounds; step++ {
				params[0] = float64(1000*(r+1) + step) // names this (replica, step) to the recorder
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				replies, err := client.PullFirstQInto(ctx, []string{"worker", "decoy"}, 1,
					rpc.Request{Kind: rpc.KindGetGradient, Step: uint32(step), Vec: params}, arena)
				cancel()
				if err != nil {
					t.Errorf("replica %d step %d: %v", r, step, err)
					return
				}
				switch replies[0].From {
				case "worker":
					got[r] = append(got[r], pulled{params[0], replies[0].Vec.Clone()})
				case "decoy":
					if !replies[0].Vec.Equal(decoyVec) {
						t.Errorf("replica %d step %d: decoy reply corrupted", r, step)
					}
				}
			}
		}(r)
	}
	wg.Wait()

	for r, ps := range got {
		if len(ps) < rounds/2 {
			t.Errorf("replica %d decoded %d worker replies, want at least the %d odd steps", r, len(ps), rounds/2)
		}
		for _, p := range ps {
			rec.mu.Lock()
			batch, ok := rec.batches[p.tag]
			rec.mu.Unlock()
			if !ok {
				t.Fatalf("replica %d: no gradient was computed for tag %v", r, p.tag)
			}
			params := base.Clone()
			params[0] = p.tag
			want, err := arch.Gradient(params, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(p.vec[i]) != math.Float64bits(want[i]) {
					t.Fatalf("replica %d tag %v: coordinate %d decoded as %v, the worker computed %v",
						r, p.tag, i, p.vec[i], want[i])
				}
			}
		}
	}
}
