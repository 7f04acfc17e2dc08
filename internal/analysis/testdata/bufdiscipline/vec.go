// The vector pool's half of the bufdiscipline contract. GetVec/PutVec stand
// in for tensor.GetVec/PutVec and reply for rpc.Response: a handler borrows
// a vector, fills it and gives it away in the reply under the FreeVec mark,
// which is what makes the dispatcher release it after the frame is written.
package fixture

func GetVec(n int) []float64 { return make([]float64, n) }

func PutVec(v []float64) {}

type reply struct {
	OK      bool
	Vec     []float64
	FreeVec bool
}

type cache struct{ vec []float64 }

// The leak borrowed reply vectors make possible: a decline between the
// borrow and the hand-over drops the vector on the floor.
func leakDeclineAfterBorrow(n int, stale bool) reply {
	v := GetVec(n)
	if stale {
		return reply{} // want "not released on this return path"
	}
	v[0] = 1
	return reply{OK: true, Vec: v, FreeVec: true}
}

// Without the FreeVec mark nobody releases the vector: Vec alone is not a
// transfer.
func leakUnmarkedReply(n int) reply {
	v := GetVec(n)
	v[0] = 1
	return reply{OK: true, Vec: v} // want "not released on this return path"
}

// FreeVec: false says the same thing out loud.
func leakExplicitlyUnmarked(n int) reply {
	v := GetVec(n)
	return reply{OK: true, Vec: v, FreeVec: false} // want "not released on this return path"
}

// Used after it went back to the pool: another reply may own it already.
func vecUseAfterRelease(n int) float64 {
	v := GetVec(n)
	PutVec(v)
	return v[0] // want "used after release"
}

// The handler shape done right: the decline releases, the reply transfers.
func okDeclineReleases(n int, stale bool) reply {
	v := GetVec(n)
	if stale {
		PutVec(v)
		return reply{}
	}
	v[0] = 1
	return reply{OK: true, Vec: v, FreeVec: true}
}

// A mark computed at run time is a (conditional) transfer the analyzer does
// not second-guess.
func okConditionalMark(n int, own bool) reply {
	v := GetVec(n)
	return reply{OK: true, Vec: v, FreeVec: own}
}

// Scratch borrowed and returned within one call (the little-is-enough
// variance buffer).
func okScratch(xs []float64) float64 {
	sq := GetVec(len(xs))
	var s float64
	for i, x := range xs {
		sq[i] = x * x
		s += sq[i]
	}
	PutVec(sq)
	return s
}

// Stored into a struct that is not a reply: an ordinary transfer (a cache
// keeping the vector, as the reply memo keeps its estimate).
func okCached(n int) cache {
	v := GetVec(n)
	return cache{vec: v}
}
