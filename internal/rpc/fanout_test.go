package rpc

import (
	"bytes"
	"context"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"garfield/internal/tensor"
	"garfield/internal/testutil"
	"garfield/internal/transport"
)

// tapNetwork records every Write a dialed connection is handed: the bytes,
// and the address of the slice they came from — enough to tell a frame that
// was encoded once and shared from one that was encoded per peer.
type tapNetwork struct {
	transport.Network
	mu     sync.Mutex
	writes []tapWrite
}

type tapWrite struct {
	addr    string
	backing *byte
	data    []byte
}

func (n *tapNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := n.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, net: n, addr: addr}, nil
}

func (n *tapNetwork) take() []tapWrite {
	n.mu.Lock()
	defer n.mu.Unlock()
	w := n.writes
	n.writes = nil
	return w
}

type tapConn struct {
	net.Conn
	net  *tapNetwork
	addr string
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.net.mu.Lock()
	c.net.writes = append(c.net.writes, tapWrite{addr: c.addr, backing: &b[0], data: bytes.Clone(b)})
	c.net.mu.Unlock()
	return c.Conn.Write(b)
}

// servePrebuilt serves a fixed reply at each of n addresses and returns them.
func servePrebuilt(t testing.TB, network transport.Network, n int, reply Response) []string {
	t.Helper()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = "w" + strconv.Itoa(i)
		srv, err := Serve(network, peers[i], HandlerFunc(func(Request) Response { return reply }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	return peers
}

// TestPullFirstQIntoFixedCostIndependentOfN is the allocation lock on the
// pull path: a steady-state gradient-shaped pull (the request carries a
// model, every reply a vector) over the in-memory transport leaves the same
// number of objects behind for 3 peers as for 17 — client and serving loops
// together — and at most one: the slots own the reply list too.
func TestPullFirstQIntoFixedCostIndependentOfN(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	const d = 2000
	reply := Response{OK: true, Vec: tensor.NewRNG(5).NormalVector(d, 0, 1)}
	perPull := func(n int) float64 {
		mem := transport.NewMem()
		peers := servePrebuilt(t, mem, n, reply)
		c := pooled(t, NewPooledClientAs(mem, "server-0"))
		arena := newTestArena(n)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		req := Request{Kind: KindGetGradient, Vec: tensor.New(d)}
		pull := func() {
			req.Step++
			if _, err := c.PullFirstQInto(ctx, peers, n, req, arena); err != nil {
				t.Fatal(err)
			}
		}
		pull() // dials, sizes every buffer
		return testing.AllocsPerRun(50, pull)
	}
	few, many := perPull(3), perPull(17)
	t.Logf("allocs per pull: %v at n = 3, %v at n = 17", few, many)
	if few != many {
		t.Fatalf("a pull's fixed cost grows with n: %v objects at n = 3, %v at n = 17", few, many)
	}
	if many > 1 {
		t.Fatalf("a steady-state pull allocates %v objects, want <= 1", many)
	}
}

// TestFanoutFrameSharedAcrossPeersUnderCorruptLink: the fan-out encodes its
// request once and every per-peer writer sends those same bytes. One of three
// links corrupts every frame; that peer's serving loop rejects the request on
// its checksum, the other two handlers receive the request intact, and the
// client's frame is unmodified afterwards — the chaos link mangles a copy.
func TestFanoutFrameSharedAcrossPeersUnderCorruptLink(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem())
	tap := &tapNetwork{Network: faulty}
	model := tensor.NewRNG(9).NormalVector(300, 0, 1)
	peers := []string{"clean-a", "clean-b", "mangled"}
	var mu sync.Mutex
	got := map[string]Request{}
	rejects := ChecksumRejects()
	for _, p := range peers {
		p := p
		srv, err := Serve(faulty, p, HandlerFunc(func(req Request) Response {
			// The clean peers answer only once the mangled request has been
			// rejected, so the first-2 pull below cannot finish before the
			// third writer has sent its frame.
			for wait := time.Now(); ChecksumRejects() == rejects && time.Since(wait) < 5*time.Second; {
				time.Sleep(100 * time.Microsecond)
			}
			req.Vec = req.Vec.Clone() // valid only for the call
			mu.Lock()
			got[p] = req
			mu.Unlock()
			return Response{OK: true, Vec: tensor.Vector{1}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	faulty.SetLinkFault("mangled", transport.LinkFault{Corrupt: 1}, 41)

	c := pooled(t, NewPooledClientAs(tap, "server-2"))
	req := Request{Kind: KindGetGradient, Step: 11, Vec: model}
	stamped := req
	stamped.From = "server-2"
	want := requestFrame(nil, stamped)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	replies, err := c.PullFirstQ(ctx, peers, 2, req)
	if err != nil || len(replies) != 2 {
		t.Fatalf("replies = %d, err = %v; want the two clean peers", len(replies), err)
	}
	for _, r := range replies {
		if r.From == "mangled" {
			t.Fatal("the corrupted peer's reply was accepted")
		}
	}
	if ChecksumRejects() == rejects {
		t.Fatal("no frame was rejected on its checksum: the corrupt link is not engaging")
	}

	writes := tap.take()
	if len(writes) != len(peers) {
		t.Fatalf("%d writes for %d peers", len(writes), len(peers))
	}
	for _, w := range writes {
		if !bytes.Equal(w.data, want) {
			t.Fatalf("%s was sent a frame that is not the request's encoding", w.addr)
		}
		if w.backing != writes[0].backing {
			t.Fatalf("%s was sent its own copy of the frame; the fan-out must share one", w.addr)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, served := got["mangled"]; served {
		t.Fatal("a corrupted request reached the handler")
	}
	for _, p := range peers[:2] {
		r := got[p]
		if r.Kind != req.Kind || r.Step != req.Step || r.From != "server-2" || !r.Vec.Equal(model) {
			t.Fatalf("%s decoded %v/step %d from %q, or a different model", p, r.Kind, r.Step, r.From)
		}
	}
	if frame := c.idle[0].frame; !bytes.Equal(frame, want) {
		t.Fatal("the client's frame changed under the fan-out: a link mangled it in place")
	}
}

// TestFirstQStragglerCancelReleasesFrame: at q < n the pull returns while a
// straggler is still mid-call. By then that task must be done with the
// request frame — the next pull re-encodes over it at once. Run under -race:
// every round scribbles over the frame the moment the pull returns, and the
// slow peer, which reads its requests late, must only ever see frames whose
// checksum holds.
func TestFirstQStragglerCancelReleasesFrame(t *testing.T) {
	mem := transport.NewMem()
	fast := servePrebuilt(t, mem, 2, Response{OK: true, Vec: tensor.Vector{1, 2}})
	slow, err := Serve(mem, "slow", HandlerFunc(func(Request) Response {
		time.Sleep(200 * time.Microsecond)
		return Response{OK: true, Vec: tensor.Vector{3, 4}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	peers := append(fast, "slow")

	c := pooled(t, NewPooledClient(mem))
	arena := newTestArena(len(peers))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rejects := ChecksumRejects()
	req := Request{Kind: KindGetGradient, Vec: tensor.NewRNG(2).NormalVector(500, 0, 1)}
	for round := 0; round < 200; round++ {
		req.Step = uint32(round)
		replies, err := c.PullFirstQInto(ctx, peers, 2, req, arena)
		if err != nil {
			t.Fatal(err)
		}
		if len(replies) != 2 {
			t.Fatalf("round %d: %d replies", round, len(replies))
		}
		frame := c.idle[0].frame
		for i := range frame {
			frame[i] = 0xA5
		}
	}
	if n := ChecksumRejects() - rejects; n != 0 {
		t.Fatalf("%d request frames arrived corrupted: a task was still writing the frame after its pull returned", n)
	}
}

// gatedNetwork serves connections whose reads wait for gate: a peer that is
// alive but has not yet read the request a client is writing to it.
type gatedNetwork struct {
	transport.Network
	gate <-chan struct{}
}

func (n gatedNetwork) Listen(addr string) (net.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return gatedListener{Listener: l, gate: n.gate}, nil
}

type gatedListener struct {
	net.Listener
	gate <-chan struct{}
}

func (l gatedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{Conn: conn, gate: l.gate}, nil
}

type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c gatedConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

// TestPullFirstQReturnsAtQuorumWhileStragglerNeverReads: a peer that is
// connected but never reads its request (the in-memory pipe blocks a write
// until the peer reads) does not hold the pull past its quorum — the
// straggler's write is cut with its read — and the next pull still reaches
// its quorum without it: q < n tolerates n-q silent peers round after round.
// A write cut before the peer took a byte leaves a clean stream, so the
// straggler's connection stays pooled: later pulls dial nobody.
func TestPullFirstQReturnsAtQuorumWhileStragglerNeverReads(t *testing.T) {
	mem := transport.NewMem()
	var fast []string
	for _, addr := range []string{"fast0", "fast1"} {
		srv, err := Serve(mem, addr, HandlerFunc(func(Request) Response {
			time.Sleep(10 * time.Millisecond)
			return Response{OK: true, Vec: tensor.Vector{1}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		fast = append(fast, addr)
	}
	gate := make(chan struct{})
	slow, err := Serve(gatedNetwork{Network: mem, gate: gate}, "slow", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	defer close(gate) // the silent peer reads only once the test is over
	peers := append(fast, "slow")

	counting := &countingNetwork{Network: mem}
	c := pooled(t, NewPooledClient(counting))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var dials int32
	for step := uint32(1); step <= 3; step++ {
		start := time.Now()
		replies, err := c.PullFirstQ(ctx, peers, 2, Request{Kind: KindGetGradient, Step: step, Vec: tensor.Vector{7}})
		if err != nil {
			t.Fatalf("pull %d: %v", step, err)
		}
		for _, r := range replies {
			if r.From == "slow" {
				t.Fatalf("pull %d: the silent peer answered", step)
			}
		}
		// The quorum is in after about 10 ms; the bound is far below the
		// context's 30 s, which is what waiting on the silent peer costs.
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("pull %d returned after %v: it waited on the silent peer's write", step, d)
		}
		if step == 1 {
			dials = counting.dials.Load()
		} else if n := counting.dials.Load() - dials; n != 0 {
			t.Fatalf("pull %d re-dialed %d peers: a write cut before its first byte cost the connection", step, n)
		}
	}
}
