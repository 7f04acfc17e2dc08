package rpc

import (
	"context"
	"slices"
	"testing"
	"time"

	"garfield/internal/compress"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// testArena is this package's ReplySlots, a fixed-size stand-in for
// gar.ReplyArena (which imports rpc): one reused decode destination per peer
// and one reused reply list.
type testArena struct {
	slots   []tensor.Vector
	replies []Reply
}

func newTestArena(n int) *testArena { return &testArena{slots: make([]tensor.Vector, n)} }

func (a *testArena) ReplySlot(i int) *tensor.Vector { return &a.slots[i] }

func (a *testArena) ReplyList(q int) []Reply {
	a.replies = slices.Grow(a.replies[:0], q)
	return a.replies
}

// TestDecodeResponseIntoReusesDestination locks the heart of the fused
// decode path: with a warm destination, decoding a reply — compressed or
// fp64 passthrough — allocates nothing and lands in the destination's
// backing array. This is the "no intermediate []float64 per reply"
// guarantee the codec benchmarks ride on.
func TestDecodeResponseIntoReusesDestination(t *testing.T) {
	rng := tensor.NewRNG(11)
	vec := rng.NormalVector(2048, 0, 1)

	comp, err := compress.NewCompressor(compress.EncInt8, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"int8": encodeResponse(Response{OK: true, Enc: compress.EncInt8,
			Payload: comp.Compress(nil, vec)}),
		"fp64": encodeResponse(Response{OK: true, Vec: vec}),
	}
	for name, wire := range cases {
		var dst tensor.Vector
		// Warm the destination: first decode sizes the backing array.
		if _, err := decodeResponseInto(&dst, wire, len(vec)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := &dst[0]
		allocs := testing.AllocsPerRun(50, func() {
			r, err := decodeResponseInto(&dst, wire, len(vec))
			if err != nil {
				t.Fatal(err)
			}
			if &r.Vec[0] != base || &dst[0] != base {
				t.Fatal("decode abandoned the warm destination")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per warm decode, want 0", name, allocs)
		}
	}

	// A vector-less OK reply (ping ack) must yield a nil Vec, not the stale
	// contents of the destination slot.
	var dst tensor.Vector = tensor.Vector{1, 2, 3}
	r, err := decodeResponseInto(&dst, encodeResponse(Response{OK: true}), compress.MaxDim)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vec != nil {
		t.Fatalf("vector-less reply decoded as %v", r.Vec)
	}
}

// TestPullFirstQIntoReusesSlots runs two full pull rounds against live
// compressing peers through the pooled client and checks that each peer's
// round-two reply decoded into the same backing array as round one — the
// arena's slots, not fresh vectors — while still carrying the right values.
func TestPullFirstQIntoReusesSlots(t *testing.T) {
	net := transport.NewMem()
	peers := []string{"a", "b", "c"}
	rng := tensor.NewRNG(12)
	served := map[string]tensor.Vector{}
	for _, p := range peers {
		vec := rng.NormalVector(1500, 0, 1)
		served[p] = vec
		srv, err := Serve(net, p, compressingHandler(compress.EncInt8, 0, vec))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	c := NewPooledClient(net)
	defer c.Close()

	arena := newTestArena(len(peers))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := Request{Kind: KindGetModel, Accept: compress.EncInt8}

	pull := func() map[string]*float64 {
		replies, err := c.PullFirstQInto(ctx, peers, len(peers), req, arena)
		if err != nil {
			t.Fatal(err)
		}
		backing := map[string]*float64{}
		for _, r := range replies {
			want := served[r.From]
			if len(r.Vec) != len(want) {
				t.Fatalf("%s: %d coords, want %d", r.From, len(r.Vec), len(want))
			}
			for i := range want {
				if d := r.Vec[i] - want[i]; d > 0.02 || d < -0.02 {
					t.Fatalf("%s coord %d: %v vs %v", r.From, i, r.Vec[i], want[i])
				}
			}
			backing[r.From] = &r.Vec[0]
		}
		return backing
	}

	first := pull()
	second := pull()
	for _, p := range peers {
		if first[p] != second[p] {
			t.Fatalf("peer %s reply re-allocated between rounds: fused decode missed the arena slot", p)
		}
	}
}
