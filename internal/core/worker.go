package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/attack"
	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// Worker is the passive node of Garfield's design (Section 3.2): it owns a
// data shard and responds to gradient requests. The request carries the
// requester's model state (the pull model folds model dissemination into the
// gradient pull), and the worker answers with a gradient estimate computed
// on its next mini-batch.
//
// A Byzantine worker is the same object with a non-nil attack: the paper's
// ByzantineWorker inherits from Worker and only corrupts its replies.
type Worker struct {
	arch      model.Model
	batchSize int
	atk       attack.Attack

	// momentum enables worker-side (distributed) momentum: the worker
	// replies with an exponentially-smoothed gradient instead of the raw
	// estimate. The paper points at this line of work as a seamless
	// variance-reduction extension ("they basically only change the
	// optimization function", Section 8); reducing the gradient variance
	// is what restores the GARs' resilience condition when it is
	// violated.
	momentum float64
	// selfPeers makes a Byzantine worker estimate the honest gradient
	// distribution by drawing that many extra mini-batch gradients from
	// its own shard and feeding them to collusion-style attacks
	// (little-is-enough, fall-of-empires) as the peer sample.
	selfPeers int

	// comp, when non-nil, is the worker's gradient compressor: a reply to
	// a puller that advertises the matching Accept encoding ships
	// compressed (internal/compress), everyone else gets the fp64
	// passthrough. The compressor carries the per-worker error-feedback
	// residual for top-k, so it must live here — where the gradient stream
	// lives — not in the transport.
	comp *compress.Compressor

	mu       sync.Mutex
	sampler  *data.Sampler
	velocity tensor.Vector
	// batches is the free list of batch scratch: a request takes one for its
	// draw and hands it back after Gradient. Per request, not per sampler —
	// pulls of different keys compute concurrently and mu is not held across
	// Gradient.
	batches []data.Batch

	// serveDelay is an injected per-request service delay in nanoseconds —
	// a slow node (overloaded or under-provisioned worker) as opposed to a
	// slow link. Set through Cluster.SlowWorker / SetServeDelay. The delay
	// sleeps on clock, so a simulated slow worker burns virtual time, not
	// wall time.
	serveDelay atomic.Int64
	clock      Clock

	// memo is the worker's one reply path: the estimate computed for one
	// (step, params) is served to every puller of that key (see replyMemo).
	memo replyMemo
}

var _ rpc.Handler = (*Worker)(nil)

// WorkerOption configures optional worker behaviour.
type WorkerOption func(*Worker) error

// WithWorkerMomentum enables worker-side momentum with coefficient
// mu in (0, 1).
func WithWorkerMomentum(mu float64) WorkerOption {
	return func(w *Worker) error {
		if mu <= 0 || mu >= 1 {
			return fmt.Errorf("%w: worker momentum %v not in (0,1)", ErrConfig, mu)
		}
		w.momentum = mu
		return nil
	}
}

// WithSelfEstimatedPeers makes the worker's attack observe k self-estimated
// honest gradients, enabling the collusion attacks without real
// omniscience.
func WithSelfEstimatedPeers(k int) WorkerOption {
	return func(w *Worker) error {
		if k < 1 {
			return fmt.Errorf("%w: self-estimated peers %d < 1", ErrConfig, k)
		}
		w.selfPeers = k
		return nil
	}
}

// withWorkerClock routes the worker's time reads (the serve-delay sleep)
// through the cluster's clock, so injected service delays cost virtual time
// under the simulator wiring.
func withWorkerClock(clock Clock) WorkerOption {
	return func(w *Worker) error {
		if clock == nil {
			return fmt.Errorf("%w: nil worker clock", ErrConfig)
		}
		w.clock = clock
		return nil
	}
}

// WithCompression makes the worker compress gradient replies with the given
// codec for pullers that advertise it (Request.Accept); topK is the
// coordinate budget of the top-k codec, ignored by the others. EncFP64 is a
// no-op (passthrough is the default).
func WithCompression(enc compress.Encoding, topK int) WorkerOption {
	return func(w *Worker) error {
		if enc == compress.EncFP64 {
			return nil
		}
		c, err := compress.NewCompressor(enc, topK)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
		w.comp = c
		return nil
	}
}

// NewWorker returns a worker over one data shard. atk may be nil for an
// honest worker.
func NewWorker(arch model.Model, shard *data.Dataset, batchSize int, seed uint64, atk attack.Attack, opts ...WorkerOption) (*Worker, error) {
	if arch == nil {
		return nil, fmt.Errorf("%w: nil model", ErrConfig)
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrConfig, batchSize)
	}
	s, err := data.NewSampler(shard, seed)
	if err != nil {
		return nil, fmt.Errorf("core: worker: %w", err)
	}
	if atk == nil {
		atk = attack.None{}
	}
	w := &Worker{arch: arch, batchSize: batchSize, atk: atk, sampler: s, clock: WallClock()}
	for _, opt := range opts {
		if err := opt(w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// ComputeGradient draws the next mini-batch and estimates the gradient at
// params — the worker's "main job" in the paper's design. With momentum
// enabled, the reply is the smoothed velocity v = mu*v + g. The caller owns
// the result (model.Model.Gradient's borrowed vector).
func (w *Worker) ComputeGradient(params tensor.Vector) (tensor.Vector, error) {
	g, err := w.drawGradient(params)
	if err != nil {
		return nil, fmt.Errorf("core: worker gradient: %w", err)
	}
	if w.momentum == 0 {
		return g, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.velocity == nil || len(w.velocity) != len(g) {
		w.velocity = tensor.New(len(g))
	}
	for i := range w.velocity {
		w.velocity[i] = w.momentum*w.velocity[i] + g[i]
	}
	copy(g, w.velocity)
	return g, nil
}

// drawGradient estimates the gradient at params on the sampler's next
// mini-batch, drawn into a scratch batch that is the request's own until
// Gradient returns (model.Model.Gradient reads a batch only during the call).
func (w *Worker) drawGradient(params tensor.Vector) (tensor.Vector, error) {
	w.mu.Lock()
	var batch data.Batch
	if n := len(w.batches); n > 0 {
		batch, w.batches = w.batches[n-1], w.batches[:n-1]
	}
	batch = w.sampler.Next(batch, w.batchSize)
	w.mu.Unlock()
	g, err := w.arch.Gradient(params, batch)
	w.mu.Lock()
	w.batches = append(w.batches, batch)
	w.mu.Unlock()
	return g, err
}

// attacked computes the worker's reply vector at params: the gradient
// estimate, through the attack. A collusion attack also observes selfPeers
// self-estimated honest gradients, drawn from the worker's own shard and
// released after Apply; the caller owns the result.
func (w *Worker) attacked(params tensor.Vector) (tensor.Vector, bool) {
	g, err := w.ComputeGradient(params)
	if err != nil {
		return nil, false
	}
	var peers []tensor.Vector
	for i := 0; i < w.selfPeers; i++ {
		if p, err := w.drawGradient(params); err == nil {
			peers = append(peers, p)
		}
	}
	out, ok := applyAttack(w.atk, g, peers)
	for _, p := range peers {
		tensor.PutVec(p)
	}
	return out, ok
}

// applyAttack runs atk over the owned vector v. The built-in attacks answer
// in v itself; when one omits the reply or answers in another vector, v is
// released here, so the caller is left owning exactly the result.
func applyAttack(atk attack.Attack, v tensor.Vector, peers []tensor.Vector) (tensor.Vector, bool) {
	out, ok := atk.Apply(v, peers)
	if !ok || len(out) == 0 || len(v) == 0 || &out[0] != &v[0] {
		tensor.PutVec(v)
	}
	return out, ok
}

// SetServeDelay makes every subsequent request to the worker take at least d
// of service time — the slow-node fault of the async experiments. d = 0
// clears the delay.
func (w *Worker) SetServeDelay(d time.Duration) {
	w.serveDelay.Store(int64(d))
}

// Handle implements rpc.Handler: it serves KindGetGradient requests and
// declines everything else. The first pull of a (step, params) key computes
// the estimate, post-attack (a decline too), and every pull of the key gets
// a copy of it: its [Lo, Hi) slice when ranged (sharded aggregation),
// compressed when its Accept matches the worker's codec exactly, fp64
// passthrough otherwise (the mixed-fleet fallback).
func (w *Worker) Handle(req rpc.Request) rpc.Response {
	if d := w.serveDelay.Load(); d > 0 {
		w.clock.Sleep(time.Duration(d))
	}
	switch req.Kind {
	case rpc.KindGetGradient:
		lo, hi := 0, len(req.Vec)
		if req.Ranged() {
			lo, hi = int(req.Lo), int(req.Hi)
		}
		if req.Vec == nil || hi > len(req.Vec) {
			// A ranged pull's slice must fit the model the puller sent;
			// anything else is a malformed or Byzantine request. Declining is
			// the worker's only verdict — it holds no model state to
			// re-bound the range against.
			return rpc.Response{}
		}
		var comp *compress.Compressor
		if w.comp != nil && req.Accept == w.comp.Encoding() {
			comp = w.comp
		}
		resp, e := w.memo.acquire(req.Kind, req.Step, req.Vec, comp, lo, hi)
		if e == nil {
			return resp
		}
		vec, ok := w.attacked(req.Vec)
		return w.memo.fill(e, vec, ok, comp, lo, hi)
	case rpc.KindPing:
		return rpc.Response{OK: true}
	default:
		return rpc.Response{}
	}
}

// ResetCompression clears the compressor's error-feedback residual (a no-op
// without compression). Checkpoint restores call it through the cluster: the
// accumulated residual encodes corrections for model updates the restored
// timeline no longer contains.
func (w *Worker) ResetCompression() {
	if w.comp != nil {
		w.comp.Reset()
	}
}
