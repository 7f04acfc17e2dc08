package core

import (
	"math"
	"sync"

	"garfield/internal/compress"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// replyMemo is the one reply path of a node whose replies are computed: a
// worker's gradient estimate, an attacked server's corrupted vector. The
// reply computed for a key — (kind, step, key vector) — is kept until a reply
// for another key is computed, and served to every request with that key: the
// paper's worker broadcasts one estimate per step to every server, so the
// sampler, the attack and the top-k residual advance once per key whatever
// the pullers. The key vector is copied into a reused buffer and compared bit
// for bit, never by a forgeable checksum. Every reply is a borrowed copy the
// dispatcher releases. A reply is computed outside mu: the first pull of a
// key claims an entry (acquire) and fills it (fill), pulls of that key wait
// for it meanwhile, and pulls of other keys compute concurrently. See
// ARCHITECTURE.md, "One reply path: the reply memo".
type replyMemo struct {
	mu     sync.Mutex
	filled sync.Cond    // broadcast when an entry is filled; L is mu, set by the first waiter
	kept   *memoEntry   // the last key filled
	live   []*memoEntry // kept, being computed, or awaited by a pull
	free   []*memoEntry // retired, reused with their buffers
}

// memoEntry is one key and the reply computed for it.
type memoEntry struct {
	kind    rpc.Kind
	step    uint32
	key     tensor.Vector
	busy    bool // the reply is being computed
	waiters int  // pulls waiting for the reply
	ok      bool // whether the computation produced a reply
	vec     tensor.Vector

	// payloads holds vec's compressed forms, one per coordinate range. The
	// ranges of a key must be disjoint, as the sharded plan's are: top-k
	// advances the pulled slice of its residual, which overlaps would repeat.
	payloads []memoPayload
}

type memoPayload struct {
	lo, hi int
	buf    []byte
}

// acquire serves a pull of (kind, step, key) from the entry of that key —
// once it is filled, if it is being computed — and returns a nil entry. On a
// miss it returns a new entry of the key: the caller computes the reply
// outside mu and hands it to fill. Keys of one step are kept until another
// is filled (MSMW replicas at different parameters pull one worker at once);
// a key of another step is retired as soon as a new key is claimed.
func (m *replyMemo) acquire(kind rpc.Kind, step uint32, key tensor.Vector, comp *compress.Compressor, lo, hi int) (rpc.Response, *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.live {
		if e.kind == kind && e.step == step && sameBits(e.key, key) {
			e.waiters++
			if m.filled.L == nil {
				m.filled.L = &m.mu // set once, before the first Wait
			}
			for e.busy {
				m.filled.Wait()
			}
			e.waiters--
			resp := e.serve(comp, lo, hi)
			m.release(e)
			return resp, nil
		}
	}
	if k := m.kept; k != nil && k.step != step {
		// A key of another step is done with: retire it before the new
		// computation borrows its vector, not after.
		m.kept = nil
		m.release(k)
	}
	var e *memoEntry
	if n := len(m.free); n > 0 {
		e, m.free = m.free[n-1], m.free[:n-1]
	} else {
		e = new(memoEntry)
	}
	e.kind, e.step, e.busy = kind, step, true
	e.key = append(e.key[:0], key...)
	m.live = append(m.live, e)
	return rpc.Response{}, e
}

// fill stores the reply computed for e (ok false records a decline, which
// owns nothing), makes e the kept entry — retiring the previous one — wakes
// the pulls waiting for it and serves e's own.
func (m *replyMemo) fill(e *memoEntry, vec tensor.Vector, ok bool, comp *compress.Compressor, lo, hi int) rpc.Response {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		e.vec = vec
	}
	e.ok, e.busy = ok, false
	prev := m.kept
	m.kept = e
	m.release(prev)
	m.filled.Broadcast()
	return e.serve(comp, lo, hi)
}

// drop forgets the kept key. Callers hold mu.
func (m *replyMemo) drop() {
	prev := m.kept
	m.kept = nil
	m.release(prev)
}

// release retires e, returning its reply to the pool, once nothing holds it:
// not kept, not being computed, awaited by no pull. Callers hold mu.
func (m *replyMemo) release(e *memoEntry) {
	if e == nil || e == m.kept || e.busy || e.waiters > 0 {
		return
	}
	for i, x := range m.live {
		if x == e {
			m.live = append(m.live[:i], m.live[i+1:]...)
			break
		}
	}
	tensor.PutVec(e.vec)
	e.vec, e.ok, e.payloads = nil, false, e.payloads[:0]
	m.free = append(m.free, e)
}

// serve answers with a borrowed copy of e's reply's [lo, hi) slice,
// compressed with comp when comp is non-nil. Callers hold the memo's mu.
func (e *memoEntry) serve(comp *compress.Compressor, lo, hi int) rpc.Response {
	if !e.ok || hi > len(e.vec) {
		return rpc.Response{}
	}
	if comp == nil {
		return rpc.Response{OK: true, Vec: borrowCopy(e.vec[lo:hi]), FreeVec: true}
	}
	p := e.payload(comp, lo, hi)
	buf := compress.GetBuf(len(p))
	buf = append(buf, p...)
	return rpc.Response{OK: true, Enc: comp.Encoding(), Payload: buf, FreePayload: true}
}

// payload returns vec[lo:hi] compressed, compressing on the range's first
// request into a buffer reused across keys.
func (e *memoEntry) payload(comp *compress.Compressor, lo, hi int) []byte {
	for _, p := range e.payloads {
		if p.lo == lo && p.hi == hi {
			return p.buf
		}
	}
	if n := len(e.payloads); n < cap(e.payloads) {
		e.payloads = e.payloads[:n+1]
	} else {
		e.payloads = append(e.payloads, memoPayload{})
	}
	p := &e.payloads[len(e.payloads)-1]
	p.lo, p.hi = lo, hi
	p.buf = comp.CompressRange(p.buf[:0], e.vec, lo, hi)
	return p.buf
}

// sameBits reports whether a and b hold the same bits in every coordinate —
// stricter than ==, which equates 0 and -0.
func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
