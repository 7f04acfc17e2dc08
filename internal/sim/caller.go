package sim

import (
	"context"
	"fmt"

	"garfield/internal/compress"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// Caller implements rpc.Caller by dispatching requests directly to the
// wiring's registered handlers under the virtual clock. Semantics mirror
// the live client exactly — origin stamping, quorum accounting, payload
// decompression with the same dimension bound, the same sentinel errors —
// so the protocol runners cannot tell the engines apart; only the transport
// mechanics (frames, goroutines, wall time) are gone.
type Caller struct {
	w    *Wiring
	self string
}

var _ rpc.Caller = (*Caller)(nil)

// stamped mirrors the live client's origin stamping: the caller's bound
// identity fills From only when the request carries none, so adversarial
// handlers can equivocate deterministically per puller.
func stamped(req rpc.Request, self string) rpc.Request {
	if req.From == "" {
		req.From = self
	}
	return req
}

// reqBytes estimates the request's wire size for the bandwidth term: the
// fp64 payload of the carried model state plus a small frame overhead.
func reqBytes(req rpc.Request) int {
	return 8*len(req.Vec) + 16
}

// Call sends one request to one peer: schedule the arrival one latency draw
// ahead, advance the virtual clock to it, dispatch, decode.
func (c *Caller) Call(ctx context.Context, addr string, req rpc.Request) (tensor.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req = stamped(req, c.self)
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	at := w.clock.Elapsed() + w.lat.Draw(c.self, addr, reqBytes(req))
	ev, err := w.queue.Schedule(at, 0)
	if err != nil {
		return nil, err
	}
	w.queue.Pop()
	w.clock.AdvanceTo(ev.At)
	return w.dispatchLocked(addr, req, nil)
}

// PullFirstQ collects the first q successful replies in virtual-arrival
// order: one arrival event per peer goes into the event queue at the
// current time plus that link's latency draw, events pop in (time, seq)
// order, each pop advances the clock and dispatches the peer's handler, and
// the round completes at the q-th success — whose arrival time, minus the
// round's start, is the step latency the engine's percentiles summarize.
// Failure accounting matches the live client: the round fails as soon as
// too many peers have failed for q successes to remain possible.
func (c *Caller) PullFirstQ(ctx context.Context, peers []string, q int, req rpc.Request) ([]rpc.Reply, error) {
	return c.PullFirstQInto(ctx, peers, q, req, nil)
}

// PullFirstQInto is PullFirstQ with caller-owned decode destinations (the
// fused path; see rpc.Caller). Arrivals dispatch strictly sequentially under
// the virtual clock, so slots are resolved at dispatch time — there is no
// fan-out to pre-resolve for.
func (c *Caller) PullFirstQInto(ctx context.Context, peers []string, q int, req rpc.Request, slots rpc.ReplySlots) ([]rpc.Reply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q <= 0 || q > len(peers) {
		return nil, fmt.Errorf("rpc: invalid quorum %d of %d peers", q, len(peers))
	}
	req = stamped(req, c.self)
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.clock.Elapsed()
	size := reqBytes(req)
	for i, peer := range peers {
		if _, err := w.queue.Schedule(start+w.lat.Draw(c.self, peer, size), i); err != nil {
			w.queue.Clear()
			return nil, err
		}
	}
	var replies []rpc.Reply // a nil slots' grows as replies arrive
	if slots != nil {
		replies = slots.ReplyList(q)
	}
	failures := 0
	var lastErr error
	for {
		ev, ok := w.queue.Pop()
		if !ok {
			break
		}
		w.clock.AdvanceTo(ev.At)
		peer := peers[ev.Payload]
		var dst *tensor.Vector
		if slots != nil {
			dst = slots.ReplySlot(ev.Payload)
		}
		vec, err := w.dispatchLocked(peer, req, dst)
		if err != nil {
			failures++
			lastErr = err
			if failures > len(peers)-q {
				w.queue.Clear()
				return replies, fmt.Errorf("%w: %d/%d failed, last: %v",
					rpc.ErrQuorum, failures, len(peers), lastErr)
			}
			continue
		}
		replies = append(replies, rpc.Reply{From: peer, Vec: vec})
		if len(replies) == q {
			// Quorum reached: the stragglers' arrivals are cancelled, like
			// the live client cancelling its in-flight tasks.
			w.queue.Clear()
			w.pullLat = append(w.pullLat, ev.At-start)
			return replies, nil
		}
	}
	return replies, fmt.Errorf("%w: %d/%d replies", rpc.ErrQuorum, len(replies), q)
}

// dispatchLocked invokes the peer's handler at the current virtual time and
// decodes its response under the live client's rules — into *dst when dst is
// non-nil (the fused path), reusing its backing array across rounds. Must
// hold w.mu.
func (w *Wiring) dispatchLocked(addr string, req rpc.Request, dst *tensor.Vector) (tensor.Vector, error) {
	w.calls++
	h, ok := w.handlers[addr]
	if !ok {
		return nil, fmt.Errorf("rpc: dial %q: no node at address", addr)
	}
	resp := h.Handle(req)
	if !resp.OK {
		return nil, fmt.Errorf("rpc: %q: %w", addr, rpc.ErrNotServed)
	}
	if resp.Enc != compress.EncFP64 {
		// Compressed reply: decode the payload exactly as the live client
		// does — same codec entry point, same dimension bound — and recycle
		// pooled payload buffers the way the serving loop would after
		// writing the frame.
		bound := compress.MaxDim
		if req.Vec != nil {
			bound = len(req.Vec)
		}
		var vec tensor.Vector
		if dst != nil {
			vec = *dst
		}
		err := compress.DecodeBounded(&vec, resp.Enc, resp.Payload, bound)
		if resp.FreePayload {
			compress.PutBuf(resp.Payload)
		}
		if err != nil {
			return nil, fmt.Errorf("rpc: from %q: %w", addr, err)
		}
		if dst != nil {
			*dst = vec
		}
		return vec, nil
	}
	if resp.Vec == nil {
		return nil, nil
	}
	// The live path serializes the reply, so the puller always owns a fresh
	// vector, which the GARs and staleness damping mutate in place; direct
	// dispatch copies to preserve that — into the slot's backing array on the
	// fused path. Once copied, a vector the handler gave away (FreeVec) goes
	// back to the pool, as the serving loop does after writing the frame.
	var out tensor.Vector
	if dst != nil {
		*dst = tensor.Resize(*dst, len(resp.Vec))
		out = *dst
	} else {
		out = tensor.New(len(resp.Vec))
	}
	copy(out, resp.Vec)
	if resp.FreeVec {
		tensor.PutVec(resp.Vec)
	}
	return out, nil
}
