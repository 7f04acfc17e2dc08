package rpc

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"garfield/internal/compress"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// TestFrameChecksumRejectsCorruption locks the acceptance criterion of the
// chaos engine: a payload byte flipped in flight must be rejected by the
// frame reader with ErrChecksum, never delivered to the decoder.
func TestFrameChecksumRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	resp := Response{OK: true, Vec: tensor.Vector{1, 2, 3, 4}}
	if err := writeResponseFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)

	// Every flipped payload byte position must be caught.
	for i := frameHeaderSize; i < len(clean); i++ {
		mangled := append([]byte(nil), clean...)
		mangled[i] ^= 0x40
		if _, err := readFrame(bytes.NewReader(mangled)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: err = %v, want ErrChecksum", i, err)
		}
	}
	// A flipped checksum byte is equally fatal.
	mangled := append([]byte(nil), clean...)
	mangled[5] ^= 0x01
	if _, err := readFrame(bytes.NewReader(mangled)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum flip: err = %v, want ErrChecksum", err)
	}
	// The clean frame still round-trips.
	payload, err := readFrame(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResponse(payload, compress.MaxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Vec.Equal(resp.Vec) {
		t.Fatalf("round trip = %v, want %v", got.Vec, resp.Vec)
	}
}

// TestCorruptLinkNeverPoisons drives real pulls through a transport whose
// link corrupts every frame, and asserts no corrupted vector is ever
// delivered: every call either fails or returns the honest bytes (frames
// whose flipped byte happened to be restored by a second flip — impossible
// with one flip per direction, so here: every call fails).
func TestCorruptLinkNeverPoisons(t *testing.T) {
	net := transport.NewFaulty(transport.NewMem())
	honest := tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}
	srv, err := Serve(net, "w", HandlerFunc(func(req Request) Response {
		return Response{OK: true, Vec: honest.Clone()}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	net.SetLinkFault("w", transport.LinkFault{Corrupt: 1}, 42)

	before := ChecksumRejects()
	client := NewPooledClient(net)
	defer client.Close()
	delivered := 0
	for i := 0; i < 10; i++ {
		vec, err := client.Call(context.Background(), "w", Request{Kind: KindGetGradient, Step: uint32(i), Vec: honest.Clone()})
		if err != nil {
			continue
		}
		delivered++
		if !vec.Equal(honest) {
			t.Fatalf("call %d delivered a corrupted vector: %v", i, vec)
		}
	}
	// With corruption probability 1 on both directions, nothing should get
	// through — and whatever the delivery count, nothing corrupted did.
	if delivered != 0 {
		t.Fatalf("%d calls delivered vectors through a corrupt-every-frame link", delivered)
	}
	if ChecksumRejects() == before {
		t.Fatal("no checksum rejections recorded; corruption was not detected")
	}
	if stats := net.LinkStats("w"); stats.Corrupted == 0 {
		t.Fatalf("link stats = %+v, want corrupted frames", stats)
	}
}

// TestServerSurvivesCorruptedRequestFrame: a checksum-failing request must
// be declined (not-OK) without tearing down the connection, so an honest
// retry on the same stream still works.
func TestServerSurvivesCorruptedRequestFrame(t *testing.T) {
	mem := transport.NewMem()
	srv, err := Serve(mem, "s", HandlerFunc(func(req Request) Response {
		return Response{OK: true, Vec: tensor.Vector{9}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := mem.Dial(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hand-craft a corrupted frame: valid header for the payload, then
	// flip a payload byte after computing the checksum.
	var buf bytes.Buffer
	if err := writeRequestFrame(&buf, Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	mangled := buf.Bytes()
	mangled[len(mangled)-1] ^= 0xff
	if _, err := conn.Write(mangled); err != nil {
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
		t.Fatal("server served a corrupted request")
	}
	// The connection must still be usable.
	if err := writeRequestFrame(conn, Request{Kind: KindGetGradient, Step: 1, Vec: tensor.Vector{1}}); err != nil {
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
	if !resp.OK || len(resp.Vec) != 1 || resp.Vec[0] != 9 {
		t.Fatalf("post-corruption request not served: %+v", resp)
	}
}

// TestRequestFromRoundTrip pins the identity field's wire behaviour,
// including the 255-byte truncation.
func TestRequestFromRoundTrip(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, 300))
	for _, req := range []Request{
		{Kind: KindPing, Step: 3},
		{Kind: KindGetModel, Step: 4, From: "server-2"},
		{Kind: KindGetGradient, Step: 5, From: "server-0", Vec: tensor.Vector{1, 2}},
		{Kind: KindGetModel, Step: 6, From: long},
	} {
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		want := req.From
		if len(want) > 255 {
			want = want[:255]
		}
		if got.From != want {
			t.Fatalf("From round trip = %q, want %q", got.From, want)
		}
	}
}

// TestClientIdentityStamped: a client constructed with an identity stamps it
// into requests, and the handler observes it.
func TestClientIdentityStamped(t *testing.T) {
	mem := transport.NewMem()
	seen := make(chan string, 2)
	srv, err := Serve(mem, "s", HandlerFunc(func(req Request) Response {
		seen <- req.From
		return Response{OK: true, Vec: tensor.Vector{1}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pc := NewPooledClientAs(mem, "server-7")
	defer pc.Close()
	if _, err := pc.Call(context.Background(), "s", Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "server-7" {
		t.Fatalf("pooled client stamped From = %q, want server-7", got)
	}
	// A second caller on its own connection: the serving loop keeps a
	// connection's From string between requests, never across connections.
	other := pooled(t, NewPooledClientAs(mem, "node-3"))
	for i := 0; i < 2; i++ {
		if _, err := other.Call(context.Background(), "s", Request{Kind: KindPing}); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got != "node-3" {
			t.Fatalf("client stamped From = %q, want node-3", got)
		}
	}
}

// TestDuplicateLinkNeverServesStaleReplies locks the reply-correlation
// guarantee: a chaos link that duplicates request frames desynchronizes the
// strict request/response stream, and without correlation every later call
// on the connection would silently receive its predecessor's (authentic,
// checksummed, wrong-step) reply. With the echo check, a delivered reply
// always answers the step that asked for it; desyncs fail the call instead.
func TestDuplicateLinkNeverServesStaleReplies(t *testing.T) {
	net := transport.NewFaulty(transport.NewMem())
	srv, err := Serve(net, "w", HandlerFunc(func(req Request) Response {
		// The reply encodes the step it answers, so staleness is visible.
		return Response{OK: true, Vec: tensor.Vector{float64(req.Step)}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	net.SetLinkFault("w", transport.LinkFault{Duplicate: 1}, 77)

	client := NewPooledClient(net)
	defer client.Close()
	delivered, failures := 0, 0
	for step := 0; step < 20; step++ {
		vec, err := client.Call(context.Background(), "w",
			Request{Kind: KindGetGradient, Step: uint32(step), Vec: tensor.Vector{1}})
		if err != nil {
			failures++
			continue
		}
		delivered++
		if len(vec) != 1 || vec[0] != float64(step) {
			t.Fatalf("call for step %d delivered the reply for step %v (stale)", step, vec)
		}
	}
	if failures == 0 {
		t.Fatal("a duplicate-every-frame link caused no detected failures; correlation is not engaging")
	}
	t.Logf("%d calls delivered correctly, %d failed loudly", delivered, failures)
}

// TestCorrelationRejectsShiftedReply drives the mismatch path directly: a
// reply carrying another request's echo must surface ErrMismatchedReply.
func TestCorrelationRejectsShiftedReply(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		// Answer with a stale echo (previous step).
		_ = writeResponseFrame(conn, Response{OK: true, EchoKind: KindGetModel, EchoStep: 6, Vec: tensor.Vector{1}})
	}()
	client := pooled(t, NewPooledClient(mem))
	_, err = client.Call(context.Background(), "s", Request{Kind: KindGetModel, Step: 7})
	if !errors.Is(err, ErrMismatchedReply) {
		t.Fatalf("err = %v, want ErrMismatchedReply", err)
	}
}
