package gar

import (
	"slices"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// ReplyArena owns the decode destinations for a pull round: slot i is where
// peer i's reply vector materializes, and the slots keep their backing
// arrays across rounds, so the steady state of a training loop decodes every
// compressed reply with zero allocations — the fused decode-aggregate path.
// It also keeps the list a pull's replies are collected in. It implements
// rpc.ReplySlots.
//
// Ownership contract: the reply list and the vectors returned from a pull
// against the arena alias the arena and stay valid only until the next pull
// against the same arena. That fits every Garfield protocol step, which aggregates each
// pull's replies (the aggregate is written to the Rule's own scratch, never
// aliasing the inputs — see arena.computeDistances releasing its refs)
// before issuing the next pull on the same server.
//
// ReplyArena is not safe for concurrent pulls; give concurrent pullers
// separate arenas (or none — a nil arena falls back to per-reply allocation).
type ReplyArena struct {
	// Pointer-per-slot, not a flat []tensor.Vector: ReplySlot hands out
	// *tensor.Vector before the pull's goroutines spawn, and a later growth
	// of the slot table must not invalidate pointers already handed out.
	slots   []*tensor.Vector
	replies []rpc.Reply
}

// NewReplyArena returns an arena pre-sized for n peers; it grows on demand
// past that.
func NewReplyArena(n int) *ReplyArena {
	a := &ReplyArena{slots: make([]*tensor.Vector, 0, n)}
	a.grow(n)
	return a
}

// ReplySlot returns the decode destination for peer index i, growing the
// slot table as needed. Implements rpc.ReplySlots: callers resolve slots
// sequentially before fanning out, per that interface's contract.
func (a *ReplyArena) ReplySlot(i int) *tensor.Vector {
	if i >= len(a.slots) {
		a.grow(i + 1)
	}
	return a.slots[i]
}

// ReplyList returns the arena's reply list emptied, with room for q.
// Implements rpc.ReplySlots.
func (a *ReplyArena) ReplyList(q int) []rpc.Reply {
	a.replies = slices.Grow(a.replies[:0], q)
	return a.replies
}

func (a *ReplyArena) grow(n int) {
	for len(a.slots) < n {
		a.slots = append(a.slots, new(tensor.Vector))
	}
}
