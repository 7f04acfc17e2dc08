package tensor

import "sync"

// The vector pool recycles the d-sized vectors the serving side of a round
// produces — a worker's gradient, an attack's output, a served model copy —
// the way compress.GetBuf recycles compressed payloads (the paper's Section
// 4.4 memory discipline). The owner of a borrowed vector releases it exactly
// once, after its last read: the RPC serving loop once the reply frame is
// written (rpc.Response.FreeVec), the worker once a compressed payload has
// been produced from it. A vector that is never released simply falls to the
// garbage collector; a vector released while still referenced is a data race,
// so a release is the owner's last act on it.
//
// vecPool holds boxed vectors ready to borrow; vecBoxes holds the emptied
// boxes, so a release reuses a *Vector header instead of allocating one and
// costs no more than the tensor.New it replaces.
var (
	vecPool  sync.Pool
	vecBoxes = sync.Pool{New: func() any { return new(Vector) }}
)

// GetVec borrows a vector of dimension n from the pool. Contents are
// unspecified: callers overwrite or clear every coordinate. Release it with
// PutVec.
func GetVec(n int) Vector {
	p, _ := vecPool.Get().(*Vector)
	if p == nil {
		return make(Vector, n)
	}
	v := *p
	*p = nil
	vecBoxes.Put(p)
	return Resize(v, n)
}

// PutVec returns a vector to the pool. The caller must not touch v afterwards.
// Any vector may be released, pooled origin or not, provided nothing else
// references its backing array.
func PutVec(v Vector) {
	if cap(v) == 0 {
		return
	}
	p := vecBoxes.Get().(*Vector)
	*p = v[:0]
	vecPool.Put(p)
}
