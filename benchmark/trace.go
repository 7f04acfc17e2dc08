package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/model"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// Span names, outermost first. A round is the root; an rpc.pull is one
// Caller call of a server; a core.handle is one Handler.Handle it caused on
// a peer; a model.gradient is the gradient computation inside a handle.
const (
	spanRound    = "round"
	spanPull     = "rpc.pull"
	spanHandle   = "core.handle"
	spanGradient = "model.gradient"
)

// Span is one timed interval at a layer boundary. IDs count from 1; Parent 0
// marks a root (or a span whose cause was not seen). Spans of one round
// share Round, the ID of the round's root span. Times are nanoseconds since
// the tracer was created; End 0 means the span never finished.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	// Node is the calling server of an rpc.pull and the serving node of a
	// core.handle or model.gradient.
	Node string `json:"node,omitempty"`
	Kind string `json:"kind,omitempty"`
	Step uint32 `json:"step"`
	// From is the caller a core.handle served.
	From string `json:"from,omitempty"`
	// Q is the quorum of an rpc.pull (1 for a single Call).
	Q     int   `json:"q,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

func kindName(k rpc.Kind) string {
	switch k {
	case rpc.KindGetGradient:
		return "gradient"
	case rpc.KindGetModel:
		return "model"
	case rpc.KindGetShardPart:
		return "shard_part"
	default:
		return k.String()
	}
}

type pullKey struct {
	caller string
	kind   rpc.Kind
	step   uint32
}

// tracer records spans in memory from the benchmark's own wrappers around
// the rpc.Caller, rpc.Handler and model.Model seams; nothing inside the
// program is instrumented.
type tracer struct {
	epoch time.Time

	mu sync.Mutex
	// enabled is false until start: set-up and warm-up record nothing.
	enabled bool
	spans   []Span
	// round is the open round's span ID, 0 between segments.
	round int
	// pulls maps (caller, kind, step) to the most recent rpc.pull span with
	// that key. A handle usually starts while its pull is still open, but a
	// straggler cancelled by a first-q pull is served after the pull
	// returned, so ended pulls stay until a newer one replaces them.
	pulls map[pullKey]int
	// handles maps the identity of a request's model vector to the open
	// core.handle span serving it; the worker passes that same slice to
	// Model.Gradient, which is how a gradient finds its handle.
	handles map[*float64]int
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		pulls:   make(map[pullKey]int),
		handles: make(map[*float64]int),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start turns recording on. While it is off the begin methods return span
// ID 0, which the end methods ignore — so a call that began before start and
// ends after it is dropped whole.
func (t *tracer) start() {
	t.mu.Lock()
	t.enabled = true
	t.mu.Unlock()
}

// open appends a span and returns its ID. Callers hold t.mu.
func (t *tracer) open(s Span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// beginPull opens an rpc.pull span. A gradient pull whose step differs from
// the open round's starts the next round: every topology opens a round by
// pulling gradients, all replicas pull the same step within a round, and
// consecutive rounds of one Run* call never share a step.
func (t *tracer) beginPull(caller string, req rpc.Request, q int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	now := t.now()
	if req.Kind == rpc.KindGetGradient && (t.round == 0 || t.spans[t.round-1].Step != req.Step) {
		t.closeRound(now)
		t.round = t.open(Span{Name: spanRound, Step: req.Step, Start: now})
		t.spans[t.round-1].Round = t.round
	}
	id := t.open(Span{
		Name: spanPull, Parent: t.round, Round: t.round,
		Node: caller, Kind: kindName(req.Kind), Step: req.Step, Q: q, Start: now,
	})
	t.pulls[pullKey{caller, req.Kind, req.Step}] = id
	return id
}

func (t *tracer) closeRound(now int64) {
	if t.round != 0 {
		t.spans[t.round-1].End = now
		t.round = 0
	}
}

// endSegment closes the open round when a Run* call returns, so the last
// round of a segment ends there rather than at the next segment's first
// pull.
func (t *tracer) endSegment() {
	t.mu.Lock()
	t.closeRound(t.now())
	t.mu.Unlock()
}

func vecKey(v tensor.Vector) *float64 {
	if len(v) == 0 {
		return nil
	}
	return &v[0]
}

func (t *tracer) beginHandle(node string, req rpc.Request) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	s := Span{
		Name: spanHandle, Node: node, Kind: kindName(req.Kind),
		Step: req.Step, From: req.From, Start: t.now(),
	}
	if p := t.pulls[pullKey{req.From, req.Kind, req.Step}]; p != 0 {
		s.Parent, s.Round = p, t.spans[p-1].Round
	}
	id := t.open(s)
	if k := vecKey(req.Vec); k != nil {
		t.handles[k] = id
	}
	return id
}

func (t *tracer) endHandle(id int, req rpc.Request) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	if k := vecKey(req.Vec); k != nil && t.handles[k] == id {
		delete(t.handles, k)
	}
	t.mu.Unlock()
}

func (t *tracer) beginGradient(params tensor.Vector) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	s := Span{Name: spanGradient, Kind: "gradient", Start: t.now()}
	if h := t.handles[vecKey(params)]; h != 0 {
		hs := t.spans[h-1]
		s.Parent, s.Round, s.Node, s.Step = h, hs.Round, hs.Node, hs.Step
	}
	return t.open(s)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceFile is the JSON document written to -trace-out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []Span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// wiring is the benchmark-owned core.Wiring. It mirrors the cluster's live
// default — rpc.Serve loops and one pooled client per replica over the
// fault-injectable in-memory transport — or runs the same over TCP loopback,
// and with a tracer wraps every handler and caller in a span recorder.
// Unlike the live default its callers can be closed, so clusters built on it
// leak no goroutines.
type wiring struct {
	net  transport.Network
	bind func(self string) transport.Network
	tr   *tracer // nil: no spans
}

var _ core.Wiring = (*wiring)(nil)

func newWiring(tcp bool, tr *tracer) *wiring {
	if tcp {
		lb := newLoopback()
		return &wiring{net: lb, bind: func(string) transport.Network { return lb }, tr: tr}
	}
	f := transport.NewFaulty(transport.NewMem())
	return &wiring{net: f, bind: f.Bind, tr: tr}
}

func (w *wiring) Serve(addr string, h rpc.Handler) (io.Closer, error) {
	if w.tr != nil {
		h = tracedHandler{inner: h, node: addr, tr: w.tr}
	}
	return rpc.Serve(w.net, addr, h)
}

func (w *wiring) NewCaller(self string) rpc.Caller {
	return &caller{PooledClient: rpc.NewPooledClientAs(w.bind(self), self), self: self, tr: w.tr}
}

func (w *wiring) Clock() core.Clock { return core.WallClock() }

type tracedHandler struct {
	inner rpc.Handler
	node  string
	tr    *tracer
}

func (h tracedHandler) Handle(req rpc.Request) rpc.Response {
	id := h.tr.beginHandle(h.node, req)
	resp := h.inner.Handle(req)
	h.tr.endHandle(id, req)
	return resp
}

// caller is a pooled client that records one rpc.pull span per call when it
// has a tracer. The embedded client supplies Stats, which the cluster reads
// for Result.Wire.
type caller struct {
	*rpc.PooledClient
	self string
	tr   *tracer
}

var (
	_ rpc.Caller = (*caller)(nil)
	_ io.Closer  = (*caller)(nil)
)

// Close makes the caller an io.Closer, which is what Cluster.Close looks for
// before it releases a caller's pooled connections and their watchers.
func (c *caller) Close() error {
	c.PooledClient.Close()
	return nil
}

func (c *caller) Call(ctx context.Context, addr string, req rpc.Request) (tensor.Vector, error) {
	if c.tr == nil {
		return c.PooledClient.Call(ctx, addr, req)
	}
	id := c.tr.beginPull(c.self, req, 1)
	defer c.tr.end(id)
	return c.PooledClient.Call(ctx, addr, req)
}

func (c *caller) PullFirstQ(ctx context.Context, peers []string, q int, req rpc.Request) ([]rpc.Reply, error) {
	if c.tr == nil {
		return c.PooledClient.PullFirstQ(ctx, peers, q, req)
	}
	id := c.tr.beginPull(c.self, req, q)
	defer c.tr.end(id)
	return c.PooledClient.PullFirstQ(ctx, peers, q, req)
}

func (c *caller) PullFirstQInto(ctx context.Context, peers []string, q int, req rpc.Request, slots rpc.ReplySlots) ([]rpc.Reply, error) {
	if c.tr == nil {
		return c.PooledClient.PullFirstQInto(ctx, peers, q, req, slots)
	}
	id := c.tr.beginPull(c.self, req, q)
	defer c.tr.end(id)
	return c.PooledClient.PullFirstQInto(ctx, peers, q, req, slots)
}

// tracedModel times Gradient; every other method is the wrapped model's.
type tracedModel struct {
	model.Model
	tr *tracer
}

func (m tracedModel) Gradient(params tensor.Vector, batch data.Batch) (tensor.Vector, error) {
	id := m.tr.beginGradient(params)
	g, err := m.Model.Gradient(params, batch)
	m.tr.end(id)
	return g, err
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlaps once.
func covered(lo, hi int64, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if b == 0 || b > hi {
			b = hi // unfinished or outliving the parent: clip
		}
		if a < lo {
			a = lo
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		sum += v.hi - v.lo
		end = v.hi
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s Span, children []Span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

// analyze derives the traced per-layer metrics from one run's spans. A pull
// is on the round's blocking path when blocking(caller) holds. Sums are per
// round; nw is the number of gradients one round needs. The second result is
// the mean round time in milliseconds.
func analyze(spans []Span, blocking func(caller string) bool, nw int) (map[string]float64, float64) {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	const ms = 1e6
	var (
		roundMs                      []float64
		gradNs, handleNs, handleSelf int64
		gradCalls                    int
		pullNs                       = map[string]int64{}
		tailNs                       int64
	)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		switch s.Name {
		case spanRound:
			roundMs = append(roundMs, float64(s.dur())/ms)
		case spanGradient:
			gradNs += s.dur()
			gradCalls++
		case spanHandle:
			handleNs += s.dur()
			handleSelf += selfTime(s, children[s.ID])
		case spanPull:
			if !blocking(s.Node) {
				continue
			}
			pullNs[s.Kind] += s.dur()
			// The tail is what the pull still waited for after the last
			// handle it waited on had finished: reply framing, the wire and
			// the decode, none of it hidden behind compute.
			last := s.Start
			for _, h := range children[s.ID] {
				if h.End <= s.End && h.End > last {
					last = h.End
				}
			}
			tailNs += s.End - last
		}
	}
	rounds := float64(len(roundMs))
	if rounds == 0 {
		rounds = 1
	}
	perRound := func(ns int64) float64 { return float64(ns) / ms / rounds }
	var pullAll int64
	for _, ns := range pullNs {
		pullAll += ns
	}
	m := map[string]float64{
		"model.gradient_calls":   float64(gradCalls) / rounds,
		"core.handle_ms":         perRound(handleNs),
		"core.handle_self_ms":    perRound(handleSelf),
		"rpc.pull_ms":            perRound(pullAll),
		"rpc.pull_ms.gradient":   perRound(pullNs["gradient"]),
		"rpc.pull_ms.model":      perRound(pullNs["model"]),
		"rpc.pull_ms.shard_part": perRound(pullNs["shard_part"]),
		"rpc.tail_ms":            perRound(tailNs),
		"core.round_ms_p50":      percentile(roundMs, 50),
		"core.round_ms_p90":      percentile(roundMs, 90),
	}
	if gradCalls > 0 {
		m["model.gradient_ms"] = float64(gradNs) / ms / float64(gradCalls)
		m["model.useful_share"] = float64(nw) * rounds / float64(gradCalls)
	}
	return m, mean(roundMs)
}
