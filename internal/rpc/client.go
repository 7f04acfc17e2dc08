package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/tensor"
)

// Caller is the pull-call contract the protocol layer programs against: one
// request/response round trip plus the first-q-of-n collection primitive.
// PooledClient implements it over a transport.Network; the simulator and the
// benchmark's tracer provide their own.
type Caller interface {
	// Call performs one request/response round trip with a single peer.
	Call(ctx context.Context, addr string, req Request) (tensor.Vector, error)
	// PullFirstQ fans req out to every peer and returns the fastest q
	// replies, cancelling the stragglers.
	PullFirstQ(ctx context.Context, peers []string, q int, req Request) ([]Reply, error)
	// PullFirstQInto is PullFirstQ with caller-owned destinations: peer i's
	// reply decodes directly into *slots.ReplySlot(i), reusing its capacity,
	// instead of allocating a fresh vector per reply — the fused
	// decode-aggregate path (gar.ReplyArena implements ReplySlots) — and the
	// replies are collected in slots.ReplyList(q). The returned list and its
	// Reply.Vec values alias the slots and are valid until the next pull
	// against the same slots; a nil slots degrades to PullFirstQ.
	PullFirstQInto(ctx context.Context, peers []string, q int, req Request, slots ReplySlots) ([]Reply, error)
}

// ReplySlots provides a pull round's destinations: per-peer decode
// destinations and the list the replies are collected in. Slot i is resolved
// once, sequentially, before the fan-out spawns its goroutines —
// implementations may grow backing storage inside ReplySlot but the returned
// pointers must stay valid afterwards (each pull goroutine writes only
// through its own resolved pointer). ReplyList(q) returns the reply list
// emptied, with room for q, once per pull.
type ReplySlots interface {
	ReplySlot(i int) *tensor.Vector
	ReplyList(q int) []Reply
}

var (
	// ErrQuorum is returned by PullFirstQ when fewer than q peers replied
	// successfully before the context expired or all calls failed.
	ErrQuorum = errors.New("rpc: quorum not reached")

	// ErrNotServed is returned by Call when the peer answered but had
	// nothing to serve (Response.OK == false).
	ErrNotServed = errors.New("rpc: peer declined request")

	// ErrMismatchedReply is returned when a reply's request echo does not
	// match the call that read it — the stream delivered some other
	// request's response (e.g. a chaos link duplicated a request frame and
	// desynchronized the strict request/response conversation). The reply
	// may be authentic and checksummed, but it answers the wrong question;
	// callers treat it as a transport failure, never as data.
	ErrMismatchedReply = errors.New("rpc: reply does not correlate with the request")
)

// correlate checks a decoded response against the request that awaited it.
// A zero echo on a decline is the server's "anonymous decline" for an
// unreadable (corrupted/malformed) request and passes; anything else must
// echo the request exactly.
func correlate(req *Request, resp Response) error {
	if resp.EchoKind == req.Kind && resp.EchoStep == req.Step {
		return nil
	}
	if !resp.OK && resp.EchoKind == 0 && resp.EchoStep == 0 {
		return nil
	}
	return fmt.Errorf("%w: got %v/step %d for %v/step %d",
		ErrMismatchedReply, resp.EchoKind, resp.EchoStep, req.Kind, req.Step)
}

// wrapCtx surfaces context cancellation as the root cause when a connection
// was torn down because the deadline passed.
func wrapCtx(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// Reply pairs a peer address with the vector it returned.
type Reply struct {
	From string
	Vec  tensor.Vector
}

type pullResult struct {
	reply Reply
	err   error
}

// fanout is the unit of work of the pull path: one request, stamped, encoded
// and checksummed once into a frame the client owns, and the tasks that write
// those same bytes to every peer. A client keeps its fanouts on a free list
// and a fanout keeps its frame, task slab and results channel between pulls,
// so the fixed cost of a pull does not grow with the number of peers.
//
// The frame is read-only from the moment it is sealed: the per-peer writers
// share it, a retry re-sends it, and the chaos links copy before they mangle.
// It is overwritten only by the next pull that takes the fanout, which
// PullFirstQInto allows only once every task has returned.
type fanout struct {
	c     *PooledClient
	req   Request // as sent; replies are bounded by and correlated against it
	frame []byte

	tasks   []pullTask
	results chan pullResult
	wg      sync.WaitGroup

	// The fanout is itself the context its tasks run under: the caller's
	// context plus a cancellation the fanout owns (see cancel).
	parent    context.Context
	done      chan struct{}
	cancelled atomic.Bool
}

var _ context.Context = (*fanout)(nil)

func (f *fanout) Deadline() (time.Time, bool) { return f.parent.Deadline() }
func (f *fanout) Value(key any) any           { return f.parent.Value(key) }
func (f *fanout) Done() <-chan struct{}       { return f.done }
func (f *fanout) Err() error {
	if !f.cancelled.Load() {
		return nil
	}
	if err := f.parent.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// cancel ends the tasks still in flight. context.WithCancel would do, at
// three objects a pull (the context, its cancel closure, its Done channel)
// and a registration with the parent; the fanout needs neither, because its
// collector already watches the parent and calls this when it fires. The done
// channel is spent by a cancel and replaced by the next start — a pull that
// heard from every peer never cancels and passes its channel on.
func (f *fanout) cancel() {
	f.cancelled.Store(true)
	close(f.done)
}

// pullTask is one peer's share of a fanout. run is bound to call once, when
// the slab is built, so that `go t.run()` starts the task without allocating
// a closure.
type pullTask struct {
	f    *fanout
	peer string
	dst  *tensor.Vector
	run  func()
}

func (t *pullTask) call() {
	f := t.f
	vec, err := f.c.roundTrip(f, t.peer, f, t.dst)
	f.results <- pullResult{reply: Reply{From: t.peer, Vec: vec}, err: err}
	f.wg.Done()
}

// seal makes req the fanout's request: stamped with the caller's identity
// when it carries none, encoded and checksummed into the frame.
func (f *fanout) seal(req Request) {
	if req.From == "" {
		req.From = f.c.self
	}
	f.req = req
	f.frame = requestFrame(f.frame, req)
}

// start launches one task per peer under the caller's context. Slots are
// resolved here, before any task runs, because resolving may grow the slot
// table; each task then only writes through its own pre-resolved pointer.
func (f *fanout) start(ctx context.Context, peers []string, slots ReplySlots) {
	f.parent = ctx
	if f.done == nil {
		f.done = make(chan struct{})
	}
	if cap(f.tasks) < len(peers) {
		f.tasks = make([]pullTask, len(peers))
		for i := range f.tasks {
			t := &f.tasks[i]
			t.f, t.run = f, t.call
		}
		f.results = make(chan pullResult, len(peers))
	}
	f.tasks = f.tasks[:len(peers)]
	for i, peer := range peers {
		t := &f.tasks[i]
		t.peer, t.dst = peer, nil
		if slots != nil {
			t.dst = slots.ReplySlot(i)
		}
	}
	f.wg.Add(len(peers))
	for i := range f.tasks {
		go f.tasks[i].run()
	}
}

// finish waits for every task — no goroutine outlives the pull, so the caller
// may reuse the reply slots and the client the frame — and clears what the
// stragglers left in the results channel.
func (f *fanout) finish() {
	f.wg.Wait()
	for len(f.results) > 0 {
		<-f.results
	}
	if f.cancelled.Load() {
		f.done = nil
		f.cancelled.Store(false)
	}
}

// PullFirstQ implements Caller: PullFirstQInto with a fresh vector per reply.
func (c *PooledClient) PullFirstQ(ctx context.Context, peers []string, q int, req Request) ([]Reply, error) {
	return c.PullFirstQInto(ctx, peers, q, req, nil)
}

// PullFirstQInto implements Caller. It fans the request out to every peer in
// parallel and returns as soon as q replies have arrived, cancelling the
// outstanding calls — which leaves their connections pooled whenever the reply
// stream is clean (see Call), so repeated pull rounds do not re-dial. With
// q == len(peers) it behaves synchronously (wait for everyone); with
// q < len(peers) it tolerates len(peers)-q slow, crashed or silent peers —
// exactly the (q_w <= n_w) contract of the paper's get_gradients.
//
// The returned replies preserve arrival order (fastest first). When fewer
// than q replies arrive before ctx expires, the successful prefix is
// returned along with ErrQuorum.
//
// With non-nil slots (the fused decode path), peer i's reply decodes into
// *slots.ReplySlot(i), the replies into slots.ReplyList(q); the caller
// may reuse both the moment this returns. A context without a deadline is
// bounded by DefaultCallDeadline, once for the whole fan-out.
func (c *PooledClient) PullFirstQInto(ctx context.Context, peers []string, q int, req Request, slots ReplySlots) ([]Reply, error) {
	if q <= 0 || q > len(peers) {
		return nil, fmt.Errorf("rpc: invalid quorum %d of %d peers", q, len(peers))
	}
	if _, ok := ctx.Deadline(); !ok {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, DefaultCallDeadline)
		defer stop()
	}
	f := c.takeFanout()
	f.seal(req)
	f.start(ctx, peers, slots)
	var replies []Reply // a nil slots' grows as replies arrive
	if slots != nil {
		replies = slots.ReplyList(q)
	}
	failures := 0
	defer func() {
		if len(replies)+failures < len(peers) {
			f.cancel() // stragglers are no longer needed
		}
		f.finish()
		c.putFanout(f)
	}()
	for range peers {
		select {
		case r := <-f.results:
			if r.err != nil {
				failures++
				if failures > len(peers)-q {
					return replies, fmt.Errorf("%w: %d/%d failed, last: %v",
						ErrQuorum, failures, len(peers), r.err)
				}
				continue
			}
			replies = append(replies, r.reply)
			if len(replies) == q {
				return replies, nil
			}
		case <-ctx.Done():
			return replies, fmt.Errorf("%w: %d/%d replies before deadline: %v",
				ErrQuorum, len(replies), q, ctx.Err())
		}
	}
	return replies, fmt.Errorf("%w: %d/%d replies", ErrQuorum, len(replies), q)
}
