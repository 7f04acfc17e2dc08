package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"garfield/internal/compress"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// echoHandler returns the request vector scaled by 2, or declines when the
// request carries no vector.
func echoHandler() Handler {
	return HandlerFunc(func(req Request) Response {
		if req.Vec == nil {
			return Response{}
		}
		return Response{OK: true, Vec: req.Vec.Scale(2)}
	})
}

func TestWireRequestRoundTrip(t *testing.T) {
	tests := []Request{
		{Kind: KindPing, Step: 0},
		{Kind: KindGetModel, Step: 42},
		{Kind: KindGetGradient, Step: 7, Vec: tensor.Vector{1.5, -2.5}},
	}
	for _, req := range tests {
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != req.Kind || got.Step != req.Step {
			t.Fatalf("round trip = %+v, want %+v", got, req)
		}
		if (got.Vec == nil) != (req.Vec == nil) {
			t.Fatalf("vec presence mismatch: %+v vs %+v", got, req)
		}
		for i := range req.Vec {
			if got.Vec[i] != req.Vec[i] {
				t.Fatalf("vec mismatch at %d", i)
			}
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	tests := []Response{
		{OK: false},
		{OK: true, Vec: tensor.Vector{3, 4}},
		{OK: true}, // ok with no vector
	}
	for _, resp := range tests {
		got, err := decodeResponse(encodeResponse(resp), compress.MaxDim)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != resp.OK {
			t.Fatalf("OK mismatch: %+v vs %+v", got, resp)
		}
	}
}

func TestWireMalformed(t *testing.T) {
	if _, err := decodeRequest([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := decodeResponse(nil, compress.MaxDim); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
	// hasVec flag set but payload truncated
	bad := encodeRequest(Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if _, err := decodeRequest(bad[:7]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindGetGradient.String() != "get-gradient" || Kind(99).String() != "kind(99)" {
		t.Fatal("Kind.String broken")
	}
}

func TestServeNilHandler(t *testing.T) {
	if _, err := Serve(transport.NewMem(), "a", nil); err == nil {
		t.Fatal("expected error for nil handler")
	}
}

func TestCallRoundTrip(t *testing.T) {
	net := transport.NewMem()
	srv, err := Serve(net, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pooled(t, NewPooledClient(net))
	out, err := c.Call(context.Background(), "peer",
		Request{Kind: KindGetGradient, Step: 1, Vec: tensor.Vector{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 4 {
		t.Fatalf("out = %v", out)
	}
}

func TestCallDeclined(t *testing.T) {
	net := transport.NewMem()
	srv, err := Serve(net, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pooled(t, NewPooledClient(net))
	_, err = c.Call(context.Background(), "peer", Request{Kind: KindPing})
	if !errors.Is(err, ErrNotServed) {
		t.Fatalf("err = %v, want ErrNotServed", err)
	}
}

func TestCallUnknownPeer(t *testing.T) {
	c := pooled(t, NewPooledClient(transport.NewMem()))
	if _, err := c.Call(context.Background(), "ghost", Request{Kind: KindPing}); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestCallContextCancelUnblocks(t *testing.T) {
	net := transport.NewMem()
	// Handler that never answers until released.
	block := make(chan struct{})
	srv, err := Serve(net, "hang", HandlerFunc(func(Request) Response {
		<-block
		return Response{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Deferred calls run LIFO: the handler must be released (close) before
	// srv.Close waits for the serving goroutines.
	defer srv.Close()
	defer close(block)

	c := pooled(t, NewPooledClient(net))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, "hang", Request{Kind: KindPing})
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancel did not unblock the call promptly")
	}
}

func TestServerSurvivesMalformedFrame(t *testing.T) {
	net := transport.NewMem()
	srv, err := Serve(net, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Write a garbage frame: valid length prefix, junk payload (too short
	// for a request header).
	if err := writeFrame(conn, []byte{9}); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(payload, compress.MaxDim)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("malformed request was acknowledged OK")
	}
	// The connection must still work for well-formed requests.
	if err := writeFrame(conn, encodeRequest(Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})); err != nil {
		t.Fatal(err)
	}
	payload, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = decodeResponse(payload, compress.MaxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatal("valid request after malformed one was rejected")
	}
}

func TestPullFirstQAll(t *testing.T) {
	net := transport.NewMem()
	peers := []string{"w1", "w2", "w3"}
	for _, p := range peers {
		srv, err := Serve(net, p, echoHandler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	c := pooled(t, NewPooledClient(net))
	replies, err := c.PullFirstQ(context.Background(), peers, 3,
		Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("replies = %d", len(replies))
	}
}

func TestPullFirstQToleratesSlowPeer(t *testing.T) {
	inner := transport.NewMem()
	net := transport.NewFaulty(inner)
	peers := []string{"w1", "w2", "w3"}
	for _, p := range peers {
		srv, err := Serve(net, p, echoHandler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	net.SetDelay("w3", time.Hour) // w3 is an unbounded straggler

	c := pooled(t, NewPooledClient(net))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	replies, err := c.PullFirstQ(ctx, peers, 2,
		Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %d", len(replies))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("did not return promptly with q of n")
	}
	for _, r := range replies {
		if r.From == "w3" {
			t.Fatal("straggler reply included")
		}
	}
}

func TestPullFirstQToleratesCrashedPeer(t *testing.T) {
	inner := transport.NewMem()
	net := transport.NewFaulty(inner)
	peers := []string{"w1", "w2", "w3"}
	for _, p := range peers {
		srv, err := Serve(net, p, echoHandler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	net.Crash("w2")

	c := pooled(t, NewPooledClient(net))
	replies, err := c.PullFirstQ(context.Background(), peers, 2,
		Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %d", len(replies))
	}
}

func TestPullFirstQQuorumFailure(t *testing.T) {
	inner := transport.NewMem()
	net := transport.NewFaulty(inner)
	peers := []string{"w1", "w2", "w3"}
	for _, p := range peers {
		srv, err := Serve(net, p, echoHandler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	net.Crash("w1")
	net.Crash("w2")

	c := pooled(t, NewPooledClient(net))
	_, err := c.PullFirstQ(context.Background(), peers, 2,
		Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
}

func TestPullFirstQInvalidQuorum(t *testing.T) {
	c := pooled(t, NewPooledClient(transport.NewMem()))
	if _, err := c.PullFirstQ(context.Background(), []string{"a"}, 0, Request{}); err == nil {
		t.Fatal("expected error for q=0")
	}
	if _, err := c.PullFirstQ(context.Background(), []string{"a"}, 2, Request{}); err == nil {
		t.Fatal("expected error for q > n")
	}
}

func TestPullFirstQDeadline(t *testing.T) {
	inner := transport.NewMem()
	net := transport.NewFaulty(inner)
	srv, err := Serve(net, "w1", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	net.SetDelay("w1", time.Hour)

	c := pooled(t, NewPooledClient(net))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.PullFirstQ(ctx, []string{"w1"}, 1,
		Request{Kind: KindGetGradient, Vec: tensor.Vector{1}})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
}

func TestPullFirstQCancelsStragglers(t *testing.T) {
	net := transport.NewMem()
	var slowStarted, slowFinished atomic.Int32
	fast := HandlerFunc(func(req Request) Response {
		return Response{OK: true, Vec: tensor.Vector{1}}
	})
	slow := HandlerFunc(func(req Request) Response {
		slowStarted.Add(1)
		time.Sleep(200 * time.Millisecond)
		slowFinished.Add(1)
		return Response{OK: true, Vec: tensor.Vector{2}}
	})
	s1, err := Serve(net, "fast1", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Serve(net, "fast2", fast)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s3, err := Serve(net, "slow", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()

	c := pooled(t, NewPooledClient(net))
	start := time.Now()
	replies, err := c.PullFirstQ(context.Background(), []string{"fast1", "fast2", "slow"}, 2,
		Request{Kind: KindPing})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %d", len(replies))
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("PullFirstQ waited for straggler: %v", elapsed)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	net := transport.NewMem()
	srv, err := Serve(net, "x", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := transport.NewMem()
	srv, err := Serve(net, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pooled(t, NewPooledClient(net))
	const calls = 50
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		i := i
		go func() {
			v := tensor.Vector{float64(i)}
			out, err := c.Call(context.Background(), "peer",
				Request{Kind: KindGetGradient, Step: uint32(i), Vec: v})
			if err == nil && out[0] != 2*float64(i) {
				err = errors.New("wrong payload")
			}
			errCh <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCallOverTCP(t *testing.T) {
	var net transport.TCP
	srv, err := Serve(net, "127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pooled(t, NewPooledClient(net))
	out, err := c.Call(context.Background(), srv.Addr(),
		Request{Kind: KindGetGradient, Vec: tensor.Vector{21}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Fatalf("out = %v", out)
	}
}
