package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"garfield/internal/attack"
	"garfield/internal/compress"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
)

// Server is the stateful node of Garfield's design (Section 3.2): it owns
// the model state, asks workers for gradient estimates, aggregates them and
// updates the model. It issues the two networking abstractions of the paper
// — get_gradients(t, q) and get_models(q) — plus get_aggr_grads(q) for the
// decentralized contract step, all through one quorum-pull helper (pull),
// and serves the corresponding pull requests from its peers.
//
// A Byzantine server is the same object with a non-nil attack, which
// corrupts the models and aggregated gradients it serves.
type Server struct {
	arch   model.Model
	opt    *sgd.Optimizer
	client rpc.Caller
	atk    attack.Attack

	// arena holds the fused decode destinations for this server's pulls:
	// peer i's reply decodes straight into slot i's reusable backing array
	// (rpc.Caller.PullFirstQInto) and the replies into a reused list, so
	// steady-state pulls allocate nothing whatever codec is on the wire.
	// Sharing one arena across gradient, model and aggregate pulls is safe
	// because a server issues pulls one at a time and every protocol step
	// aggregates a pull's replies — into the Aggregator's own scratch, which
	// never aliases its inputs — before issuing the next pull.
	arena *gar.ReplyArena

	// rosterMu guards the pull target lists, which the membership layer
	// rebinds on every roster epoch transition (Cluster join/leave/scale).
	// The lists are replaced wholesale, never mutated in place, so a pull
	// round that snapshotted them keeps running against the old roster
	// while new rounds observe the new one.
	rosterMu sync.RWMutex
	workers  []string
	peers    []string // other server replicas
	// accept is the payload encoding this server advertises on gradient
	// pulls (Request.Accept): workers configured with the matching codec
	// compress their replies; everything else falls back to fp64. Model
	// and aggregated-gradient pulls between replicas stay passthrough —
	// model state has no error-feedback stream to absorb quantization
	// noise, so compressing it would compound error across contractions.
	accept compress.Encoding

	mu          sync.RWMutex
	params      tensor.Vector
	latestAggr  tensor.Vector
	currentStep uint32
	// stepped, when non-nil, is closed at the next step change (setStepLocked)
	// — made only while someone waits on it (awaitStep), so lockstep rounds
	// allocate no channel.
	stepped chan struct{}

	// reqVec is the model snapshot a gradient pull carries (the pull model
	// folds model dissemination into the request), reused across rounds. One
	// buffer suffices for the reason one arena does: a server issues pulls
	// one at a time, and a pull's tasks have all finished reading the request
	// when PullFirstQInto returns.
	reqVec tensor.Vector
	// pulled is the vector list a pull hands to its aggregation, reused for
	// the same reason: it is consumed before the server's next pull.
	pulled []tensor.Vector

	// memo is an attacked server's reply path: the attack runs once per
	// (kind, step, served state), whoever pulls (see replyMemo).
	memo replyMemo

	// partMu guards the shard-part store of the sharded-aggregation
	// protocol: the aggregated parts this replica owns for the current
	// round, served to peers via KindGetShardPart. Entries are keyed by
	// shard index and stamped with their step; a pull whose step does not
	// match the stored stamp is declined, so a part from an aborted or
	// older round can never leak into a later reassembly. Buffers are
	// reused across rounds (SetShardPart copies in place).
	partMu sync.RWMutex
	parts  map[uint16]*shardPart
}

// shardPart is one owned aggregated part: the round it belongs to and its
// coordinates (a shard slice for coordinate-wise rules, a full-dimension
// group winner for hierarchical selection).
type shardPart struct {
	step uint32
	vec  tensor.Vector
}

// ServerConfig collects the dependencies of a Server.
type ServerConfig struct {
	// Arch is the model architecture (shared by all nodes).
	Arch model.Model
	// Init is the initial parameter vector; the server clones it.
	Init tensor.Vector
	// Optimizer applies aggregated gradients.
	Optimizer *sgd.Optimizer
	// Client issues pulls; Workers and Peers are the pull targets. The
	// pooled client is the standard choice (see rpc.PooledClient).
	Client  rpc.Caller
	Workers []string
	Peers   []string
	// Attack, when non-nil, makes this a Byzantine server.
	Attack attack.Attack
	// Accept is the payload encoding to advertise on gradient pulls
	// (compress.EncFP64 requests plain passthrough replies).
	Accept compress.Encoding
}

var _ rpc.Handler = (*Server)(nil)

// NewServer returns a server with the given dependencies.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Arch == nil || cfg.Optimizer == nil || cfg.Client == nil {
		return nil, fmt.Errorf("%w: server needs arch, optimizer and client", ErrConfig)
	}
	if len(cfg.Init) != cfg.Arch.Dim() {
		return nil, fmt.Errorf("%w: init params dim %d, model dim %d",
			ErrConfig, len(cfg.Init), cfg.Arch.Dim())
	}
	atk := cfg.Attack
	if atk == nil {
		atk = attack.None{}
	}
	n := len(cfg.Workers)
	if len(cfg.Peers) > n {
		n = len(cfg.Peers)
	}
	return &Server{
		arch:    cfg.Arch,
		opt:     cfg.Optimizer,
		client:  cfg.Client,
		workers: append([]string(nil), cfg.Workers...),
		peers:   append([]string(nil), cfg.Peers...),
		atk:     atk,
		accept:  cfg.Accept,
		params:  cfg.Init.Clone(),
		arena:   gar.NewReplyArena(n),
	}, nil
}

// Params returns a copy of the current model state.
func (s *Server) Params() tensor.Vector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.params.Clone()
}

// Step returns the current iteration counter.
func (s *Server) Step() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.currentStep
}

// Snapshot returns a copy of the model state together with the step it
// belongs to, as one consistent read — the async fetchers tag gradients with
// the step their parameters came from, so the pair must not tear.
func (s *Server) Snapshot() (tensor.Vector, uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.params.Clone(), s.currentStep
}

// workerList returns the current worker pull targets. The slice is replaced,
// never mutated, so the snapshot is safe to iterate without the lock.
func (s *Server) workerList() []string {
	s.rosterMu.RLock()
	defer s.rosterMu.RUnlock()
	return s.workers
}

// peerList returns the current server-replica pull targets.
func (s *Server) peerList() []string {
	s.rosterMu.RLock()
	defer s.rosterMu.RUnlock()
	return s.peers
}

// SetWorkers rebinds the server's worker pull targets — a roster epoch
// transition. In-flight pull rounds keep their snapshot of the old list.
func (s *Server) SetWorkers(workers []string) {
	fresh := append([]string(nil), workers...)
	s.rosterMu.Lock()
	s.workers = fresh
	s.rosterMu.Unlock()
}

// SetPeers rebinds the server's replica pull targets.
func (s *Server) SetPeers(peers []string) {
	fresh := append([]string(nil), peers...)
	s.rosterMu.Lock()
	s.peers = fresh
	s.rosterMu.Unlock()
}

// ResetDerived clears the server's derived state — the published aggregated
// gradient, the reply memo and the owned shard parts — without touching the
// model or the optimizer. Crash recovery goes through it: all three were
// produced on the pre-crash timeline, and serving them after the replica
// rejoins would hand peers vectors from rounds the rest of the fleet has
// moved past (what checkpoint restore and AdoptState reset too).
func (s *Server) ResetDerived() {
	s.mu.Lock()
	s.latestAggr = nil
	s.mu.Unlock()
	s.memo.mu.Lock()
	s.memo.drop()
	s.memo.mu.Unlock()
	s.partMu.Lock()
	s.parts = nil
	s.partMu.Unlock()
}

// AdoptState overwrites the replica's model state and step counter with a
// peer's — the catch-up path of the sharded protocol, where a recovered
// replica bootstraps from the fleet's newest live model before rejoining
// reassembly. Checkpoint-restore semantics minus the encoding: optimizer
// schedule state realigns to the adopted step, and every piece of derived
// state (published aggregate, reply memo, owned shard parts) is dropped — it
// was produced on a timeline this replica no longer inhabits.
func (s *Server) AdoptState(params tensor.Vector, step uint32) error {
	if len(params) != s.arch.Dim() {
		return fmt.Errorf("%w: adopt_state dim %d, model dim %d", ErrConfig, len(params), s.arch.Dim())
	}
	s.mu.Lock()
	copy(s.params, params)
	s.setStepLocked(step)
	s.opt.ResetTo(int(step))
	s.mu.Unlock()
	s.ResetDerived()
	return nil
}

// setStepLocked moves the step counter and wakes every awaitStep. Callers
// hold mu.
func (s *Server) setStepLocked(step uint32) {
	s.currentStep = step
	if s.stepped != nil {
		close(s.stepped)
		s.stepped = nil
	}
}

// awaitStep blocks until the step counter differs from step or ctx is done.
func (s *Server) awaitStep(ctx context.Context, step uint32) {
	s.mu.Lock()
	if s.currentStep != step {
		s.mu.Unlock()
		return
	}
	if s.stepped == nil {
		s.stepped = make(chan struct{})
	}
	stepped := s.stepped
	s.mu.Unlock()
	select {
	case <-stepped:
	case <-ctx.Done():
	}
}

// pullReq is one quorum pull: the request, the peers it fans out to, and the
// number of replies it waits for. Every pull a server issues — gradients,
// ranged or group-local gradients, peer models, peer aggregates — is one of
// these run through Server.pull; the constructors below are the only places
// that know what each kind asks for.
type pullReq struct {
	what  string // the paper's method name, for the error text
	req   rpc.Request
	peers []string
	q     int
}

// pull runs one quorum pull and returns the fastest q reply vectors, decoded
// into the server's arena (they and the list are valid until its next pull).
func (s *Server) pull(ctx context.Context, p pullReq) ([]tensor.Vector, error) {
	replies, err := s.client.PullFirstQInto(ctx, p.peers, p.q, p.req, s.arena)
	if err != nil {
		return nil, fmt.Errorf("core: %s(step=%d, q=%d of %d): %w", p.what, p.req.Step, p.q, len(p.peers), err)
	}
	return s.replyVectors(replies), nil
}

// pullAggregate is the timed pull-and-aggregate block every round is made
// of: pull q vectors, reduce them with agg. The two spans are measured on clk
// and recorded in bd as communication and aggregation time; runners pass a
// nil bd (records nothing) for every replica but the observed one. The
// result is agg's buffer, valid until agg's next call.
func (s *Server) pullAggregate(ctx context.Context, p pullReq, agg *Aggregator, clk Clock, bd *metrics.Breakdown) (tensor.Vector, error) {
	t0 := clk.Now()
	vecs, err := s.pull(ctx, p)
	t1 := clk.Now()
	bd.AddComm(t1.Sub(t0))
	if err != nil {
		return nil, err
	}
	out, err := agg.Aggregate(vecs)
	bd.AddAgg(clk.Now().Sub(t1))
	return out, err
}

// exchangeModels is the model-contraction step of Listing 2: pull q peer
// models, robust-aggregate them and overwrite the local state.
func (s *Server) exchangeModels(ctx context.Context, q int, agg *Aggregator, clk Clock, bd *metrics.Breakdown) error {
	m, err := s.pullAggregate(ctx, s.modelsReq(q), agg, clk, bd)
	if err != nil {
		return err
	}
	return s.WriteModel(m)
}

// gradientsReq is the paper's get_gradients(t, q): the current model is
// broadcast to the workers (folded into the pull request) and the fastest q
// gradient estimates come back. q == len(workers) is the synchronous mode;
// q < len(workers) tolerates stragglers and faults.
func (s *Server) gradientsReq(t, q int) pullReq {
	return s.gradientsFromReq(t, s.workerList(), q)
}

// gradientsFromReq is get_gradients(t, q) against an explicit worker subset
// — the group-local pull of the hierarchical sharded protocol, where a shard
// owner collects full gradients from its group's members only.
func (s *Server) gradientsFromReq(t int, workers []string, q int) pullReq {
	s.reqVec = tensor.Resize(s.reqVec, s.arch.Dim())
	s.mu.RLock()
	copy(s.reqVec, s.params)
	s.mu.RUnlock()
	return pullReq{
		what:  "get_gradients",
		req:   rpc.Request{Kind: rpc.KindGetGradient, Step: uint32(t), Accept: s.accept, Vec: s.reqVec},
		peers: workers, q: q,
	}
}

// gradientsRangeReq is get_gradients(t, q) restricted to one coordinate
// shard: the request still carries the full model (the worker needs every
// coordinate to compute its gradient) but asks for only the [lo, hi) slice
// of the estimate, so the reply payload — and the decode bound — shrink to
// the shard's width. shard tags the pull for per-shard wire accounting.
func (s *Server) gradientsRangeReq(t, q int, shard uint16, lo, hi int) pullReq {
	p := s.gradientsReq(t, q)
	p.what = "get_gradients_range"
	p.req.Shard, p.req.Lo, p.req.Hi = shard, uint32(lo), uint32(hi)
	return p
}

// modelsReq is the paper's get_models(q): the current model state of the
// fastest q server replicas (out of all peers).
func (s *Server) modelsReq(q int) pullReq {
	return pullReq{what: "get_models", req: rpc.Request{Kind: rpc.KindGetModel, Step: s.Step()}, peers: s.peerList(), q: q}
}

// aggrGradsReq asks the fastest q peers for their latest aggregated gradient
// — the multi-round contract step of the decentralized application
// (Listing 3).
func (s *Server) aggrGradsReq(q int) pullReq {
	return pullReq{what: "get_aggr_grads", req: rpc.Request{Kind: rpc.KindGetAggrGrad, Step: s.Step()}, peers: s.peerList(), q: q}
}

// replyVectors extracts the pulled vectors. Replies arrive fastest-first;
// they are re-ordered canonically by peer address so that aggregation input
// order — and with it the floating-point reduction order of order-sensitive
// GARs — does not depend on scheduling.
func (s *Server) replyVectors(replies []rpc.Reply) []tensor.Vector {
	slices.SortFunc(replies, func(a, b rpc.Reply) int { return strings.Compare(a.From, b.From) })
	s.pulled = s.pulled[:0]
	for _, r := range replies {
		s.pulled = append(s.pulled, r.Vec)
	}
	return s.pulled
}

// UpdateModel applies an aggregated gradient through the optimizer — the
// paper's update_model method.
func (s *Server) UpdateModel(aggrGrad tensor.Vector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.opt.Apply(s.params, aggrGrad); err != nil {
		return fmt.Errorf("core: update_model: %w", err)
	}
	s.setStepLocked(s.currentStep + 1)
	return nil
}

// WriteModel overwrites the model state — the paper's write_model method,
// used after model aggregation among server replicas.
func (s *Server) WriteModel(m tensor.Vector) error {
	if len(m) != s.arch.Dim() {
		return fmt.Errorf("%w: write_model dim %d, model dim %d", ErrConfig, len(m), s.arch.Dim())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(s.params, m)
	return nil
}

// SetLatestAggrGrad publishes the node's aggregated gradient for peers to
// pull during the contract step (Listing 3, line 18).
func (s *Server) SetLatestAggrGrad(g tensor.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latestAggr = g.Clone()
}

// SetShardPart publishes this replica's aggregated part for (step, shard),
// copying into the slot's reused buffer — the owner's half of the sharded
// protocol's Phase A. Peers pull it with KindGetShardPart during Phase B
// reassembly.
func (s *Server) SetShardPart(step uint32, shard uint16, part tensor.Vector) {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	if s.parts == nil {
		s.parts = make(map[uint16]*shardPart)
	}
	e := s.parts[shard]
	if e == nil {
		e = &shardPart{}
		s.parts[shard] = e
	}
	e.step = step
	e.vec = tensor.Resize(e.vec, len(part))
	copy(e.vec, part)
}

// shardPartLocal returns the replica's own stored part for (step, shard)
// without a network round trip — the owner's local read during Phase B. The
// returned vector aliases the store; the sharded round's stage boundaries
// put every read before the next round's SetShardPart.
func (s *Server) shardPartLocal(step uint32, shard uint16) (tensor.Vector, bool) {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	e := s.parts[shard]
	if e == nil || e.step != step {
		return nil, false
	}
	return e.vec, true
}

// GetShardPart pulls one aggregated part from its owner — the reassembly
// pull of Phase B. lo/hi carry the expected coordinate range so the reply
// decoder is bounded by the part's width (hierarchical group winners span
// the full dimension: lo=0, hi=d).
func (s *Server) GetShardPart(ctx context.Context, owner string, step uint32, shard uint16, lo, hi int) (tensor.Vector, error) {
	req := rpc.Request{
		Kind: rpc.KindGetShardPart, Step: step,
		Shard: shard, Lo: uint32(lo), Hi: uint32(hi),
	}
	v, err := s.client.Call(ctx, owner, req)
	if err != nil {
		return nil, fmt.Errorf("core: get_shard_part(step=%d, shard=%d) from %s: %w", step, shard, owner, err)
	}
	return v, nil
}

// ComputeAccuracy evaluates top-1 accuracy of the current model on the test
// set — the paper's compute_accuracy method.
func (s *Server) ComputeAccuracy(test *data.Dataset) (float64, error) {
	s.mu.RLock()
	params := borrowCopy(s.params)
	s.mu.RUnlock()
	defer tensor.PutVec(params)
	return s.arch.Accuracy(params, test)
}

// Handle implements rpc.Handler: serves model, aggregated-gradient and ping
// requests. A Byzantine server corrupts the vectors it serves. Every served
// vector is a borrowed copy taken under the lock that guards its source — the
// response encoder reads it after Handle returns, when the next update (or a
// later round's SetShardPart) may already be overwriting the original — and
// is given away with the reply (FreeVec).
func (s *Server) Handle(req rpc.Request) rpc.Response {
	var v tensor.Vector
	switch req.Kind {
	case rpc.KindGetModel:
		s.mu.RLock()
		v = borrowCopy(s.params)
		s.mu.RUnlock()
	case rpc.KindGetAggrGrad:
		s.mu.RLock()
		v = borrowCopy(s.latestAggr)
		s.mu.RUnlock()
	case rpc.KindGetShardPart:
		s.partMu.RLock()
		if e := s.parts[req.Shard]; e != nil && e.step == req.Step {
			v = borrowCopy(e.vec)
		}
		s.partMu.RUnlock()
	case rpc.KindPing:
		return rpc.Response{OK: true}
	}
	if v == nil {
		return rpc.Response{} // unknown kind, or nothing to serve yet
	}
	return s.serveVector(req, v)
}

// borrowCopy returns a copy of src in a vector borrowed from the pool, nil
// for a nil src.
func borrowCopy(src tensor.Vector) tensor.Vector {
	if src == nil {
		return nil
	}
	v := tensor.GetVec(len(src))
	copy(v, src)
	return v
}

// serveVector answers with the owned vector v: as it is for an honest
// server, through the memo for an attacked one, whose key v joins.
func (s *Server) serveVector(req rpc.Request, v tensor.Vector) rpc.Response {
	if _, honest := s.atk.(attack.None); honest {
		return rpc.Response{OK: true, Vec: v, FreeVec: true}
	}
	n := len(v)
	resp, e := s.memo.acquire(req.Kind, req.Step, v, nil, 0, n)
	if e == nil {
		tensor.PutVec(v)
		return resp
	}
	out, ok := applyAttack(s.atk, v, nil)
	return s.memo.fill(e, out, ok, nil, 0, n)
}
