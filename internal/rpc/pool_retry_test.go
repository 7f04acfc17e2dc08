package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// TestPooledRetriesIdleDeath: a pooled connection severed while idle (a
// peer restart or an injected fault — transport.Faulty severs links on
// Crash and SetDelay) must be re-dialed transparently within one Call, not
// surface a failure to the protocol layer. Pulls are idempotent reads, so
// the single retry is safe.
// flakyDialNetwork refuses the first n dials, then delegates — the
// deterministic stand-in for a peer that is mid-rejoin when the fleet's
// clients come knocking.
type flakyDialNetwork struct {
	transport.Network
	failures atomic.Int32
}

func (f *flakyDialNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	return f.Network.Dial(ctx, addr)
}

// TestPooledDialRetryRidesOutRejoiningPeer: a dial refused while a peer
// rejoins is retried under the bounded jittered backoff within one Call, and
// the retry work is accounted in WireStats — Retries counts the repeated
// attempts, BackoffNanos the time spent sleeping between them.
func TestPooledDialRetryRidesOutRejoiningPeer(t *testing.T) {
	inner := transport.NewMem()
	srv, err := Serve(inner, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	flaky := &flakyDialNetwork{Network: inner}
	flaky.failures.Store(2) // attempts 1 and 2 refused, attempt 3 connects
	c := NewPooledClient(flaky)
	defer c.Close()

	if _, err := c.Call(context.Background(), "peer", Request{Kind: KindGetGradient, Vec: tensor.Vector{1}}); err != nil {
		t.Fatalf("call through two refused dials failed: %v", err)
	}
	st := c.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.BackoffNanos == 0 {
		t.Fatal("BackoffNanos = 0: the second retry must have slept in the backoff")
	}
	if st.Calls != 1 || st.Replies != 1 {
		t.Fatalf("Calls = %d Replies = %d, want 1/1 (refused dials never reached the wire)", st.Calls, st.Replies)
	}
}

// TestPooledDialRetryBounded: a peer that keeps refusing exhausts the
// attempt budget and surfaces the dial error — the backoff is bounded, not
// an infinite loop — with every repeated attempt counted.
func TestPooledDialRetryBounded(t *testing.T) {
	c := NewPooledClient(transport.NewMem())
	defer c.Close()
	if _, err := c.Call(context.Background(), "ghost", Request{Kind: KindPing}); err == nil {
		t.Fatal("expected dial error")
	}
	st := c.Stats()
	if st.Retries != maxCallAttempts-1 {
		t.Fatalf("Retries = %d, want %d (attempt budget exhausted)", st.Retries, maxCallAttempts-1)
	}
	if st.Calls != 0 {
		t.Fatalf("Calls = %d, want 0: no attempt reached the wire", st.Calls)
	}
}

// TestWireStatsRetryCountersRoundTrip: the retry counters ride the WireStats
// Add/Sub algebra like every other field (cluster aggregation and snapshot
// deltas depend on it).
func TestWireStatsRetryCountersRoundTrip(t *testing.T) {
	a := WireStats{Calls: 5, Retries: 3, BackoffNanos: 1500}
	b := WireStats{Calls: 2, Retries: 1, BackoffNanos: 400}
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("Add/Sub round trip = %+v, want %+v", got, a)
	}
}

func TestPooledRetriesIdleDeath(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem())
	srv, err := Serve(faulty, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewPooledClient(faulty)
	defer c.Close()

	req := Request{Kind: KindGetGradient, Vec: tensor.Vector{1}}
	if _, err := c.Call(context.Background(), "peer", req); err != nil {
		t.Fatal(err)
	}
	// Injecting a link delay severs the established connection; the next
	// single Call must ride through via redial.
	faulty.SetDelay("peer", time.Millisecond)
	if _, err := c.Call(context.Background(), "peer", req); err != nil {
		t.Fatalf("one Call over a severed-idle connection failed: %v", err)
	}
}

// TestPooledRetryResendsTheSameFrame: the request is encoded once per Call;
// the attempt that dies with the idle connection and the retry over the
// fresh one write the same bytes from the same buffer.
func TestPooledRetryResendsTheSameFrame(t *testing.T) {
	faulty := transport.NewFaulty(transport.NewMem())
	srv, err := Serve(faulty, "peer", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tap := &tapNetwork{Network: faulty}
	c := NewPooledClientAs(tap, "server-1")
	defer c.Close()

	req := Request{Kind: KindGetGradient, Step: 4, Vec: tensor.Vector{1, 2, 3}}
	if _, err := c.Call(context.Background(), "peer", req); err != nil {
		t.Fatal(err)
	}
	tap.take()
	faulty.SetDelay("peer", time.Millisecond) // severs the idle connection
	out, err := c.Call(context.Background(), "peer", req)
	if err != nil {
		t.Fatalf("one Call over a severed-idle connection failed: %v", err)
	}
	if out[2] != 6 {
		t.Fatalf("out = %v", out)
	}
	if c.Stats().Retries == 0 {
		t.Fatal("the severed connection caused no retry: nothing was re-sent")
	}
	writes := tap.take()
	if len(writes) < 2 {
		t.Fatalf("%d writes, want the dead attempt and its retry", len(writes))
	}
	stamped := req
	stamped.From = "server-1"
	want := requestFrame(nil, stamped)
	for i, w := range writes {
		if !bytes.Equal(w.data, want) || w.backing != writes[0].backing {
			t.Fatalf("attempt %d sent other bytes, or a re-encoded copy, than attempt 0", i)
		}
	}
}
