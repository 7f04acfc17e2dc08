package tensor

import (
	"testing"

	"garfield/internal/testutil"
)

func TestVecPoolBorrowRelease(t *testing.T) {
	v := GetVec(100)
	if len(v) != 100 {
		t.Fatalf("GetVec(100) has length %d", len(v))
	}
	PutVec(nil) // releasing nothing is harmless
	PutVec(Vector{})
	// A borrowed vector is the borrower's alone until it is released: two
	// borrows never share a backing array.
	w := GetVec(100)
	if &v[0] == &w[0] {
		t.Fatal("two live borrows share a backing array")
	}
	PutVec(v)
	PutVec(w)
	// Whatever the pool hands out next has the length asked for, larger or
	// smaller than what went in.
	for _, n := range []int{7, 100, 1000} {
		if u := GetVec(n); len(u) != n {
			t.Fatalf("GetVec(%d) has length %d", n, len(u))
		}
	}
}

// TestVecPoolCycleDoesNotAllocate: a borrow/release cycle in steady state
// allocates nothing — neither the vector nor the box that carries it through
// the pool — so a release costs no more than the tensor.New it replaces.
func TestVecPoolCycleDoesNotAllocate(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("under the race detector sync.Pool drops a share of its Puts on purpose")
	}
	PutVec(GetVec(4096))
	allocs := testing.AllocsPerRun(100, func() {
		a, b := GetVec(4096), GetVec(4096)
		PutVec(a)
		PutVec(b)
	})
	// The first cycle allocates the second vector; every later one reuses
	// both, and AllocsPerRun's integer average rounds that one away.
	if allocs != 0 {
		t.Fatalf("%v allocations per borrow/release cycle, want 0", allocs)
	}
}
