package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"garfield/internal/compress"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// PooledClient issues pull requests to peers over one persistent connection
// per peer — the connection reuse real gRPC deployments get from HTTP/2
// channels. Calls are parallelized across peers (Section 4.1: "our
// implementation parallelizes RPC calls"), and the first-q-of-n collection
// primitive implements the semantics of get_gradients(t, q): return the
// fastest q replies, cancel the stragglers. Requests to the same peer are
// serialized over its connection (the wire protocol is strict
// request/response); requests to different peers still run fully in
// parallel, which is what Garfield's fan-out needs. For the same reason,
// concurrent callers (e.g. several server replicas) should each own a
// PooledClient rather than share one.
//
// core.Cluster and cmd/garfield-node both construct one per node. A steady
// pull loop pays no dial and leaves no garbage: the request frame and the
// fan-out's bookkeeping are reused from pull to pull (see fanout). Per-call
// cancellation is kept for straggler handling, and it is cheap: a
// cancelled call poisons the connection's I/O deadline to unblock itself,
// and when the request had been fully written and no byte of the reply
// consumed, the connection survives — the late reply is owed on the wire and
// drained by the next call to that peer; a cancelled request write the peer
// took no byte of leaves the stream clean and owes nothing. So steady-state
// straggler cancellation causes no re-dial churn. Only a cancellation that
// interrupts mid-frame tears the connection down (it is re-dialed lazily).
type PooledClient struct {
	network transport.Network
	self    string

	// Wire accounting (see WireStats): updated lock-free on every call so
	// compression ratios are observable in every run artifact.
	calls        atomic.Uint64
	bytesOut     atomic.Uint64
	bytesIn      atomic.Uint64
	replies      atomic.Uint64
	replyPayload atomic.Uint64
	replyFP64    atomic.Uint64
	shardPulls   atomic.Uint64
	shardReplies atomic.Uint64
	retries      atomic.Uint64
	backoffNanos atomic.Uint64

	// jitterState seeds the retry-backoff jitter (splitmix64 per draw): a
	// per-client stream so concurrent retriers against one rejoining peer
	// spread out without contending on a shared RNG.
	jitterState atomic.Uint64

	mu       sync.Mutex
	closed   bool
	conns    map[string]*pooledConn
	idle     []*fanout      // free list; see takeFanout
	watchers sync.WaitGroup // the per-peer cancellation watchers; see Close
}

var _ io.Closer = (*PooledClient)(nil)

// WireStats is a snapshot of a PooledClient's byte accounting: how many
// frame bytes moved in each direction, and — for the pull replies that
// actually carried vectors — what they cost on the wire versus what the
// same replies would have cost under the fp64 passthrough encoding. The
// fp64 baseline is computed from each decoded reply's dimension, so
// ReplyFP64Bytes / ReplyPayloadBytes is the exact end-to-end compression
// ratio of the reply stream.
type WireStats struct {
	// Calls counts call attempts that reached the wire.
	Calls uint64
	// BytesOut and BytesIn are total frame bytes written and read
	// (headers and checksums included; drained late replies count too).
	BytesOut uint64
	BytesIn  uint64
	// Replies counts successfully decoded OK replies.
	Replies uint64
	// ReplyPayloadBytes is the frame-body bytes of those replies as
	// shipped; ReplyFP64Bytes is what the same replies would have cost
	// under the passthrough encoding.
	ReplyPayloadBytes uint64
	ReplyFP64Bytes    uint64
	// ShardPulls counts the successfully decoded replies of sharded-
	// aggregation traffic — ranged gradient pulls and shard-part reassembly
	// pulls — and ShardReplyBytes their shipped payload bytes. Both are
	// subsets of Replies / ReplyPayloadBytes: together with them they show
	// what fraction of the reply stream the sharding layer moved.
	ShardPulls      uint64
	ShardReplyBytes uint64
	// Retries counts call attempts repeated after a retriable idle-death
	// failure; BackoffNanos is the total time those retries spent sleeping
	// in the jittered exponential backoff. Together they make churn storms
	// observable: a rejoining replica that forces the fleet through the
	// backoff path shows up here, not as silent latency.
	Retries      uint64
	BackoffNanos uint64
}

// Add returns the field-wise sum of two snapshots (aggregating a cluster's
// per-replica clients).
func (s WireStats) Add(o WireStats) WireStats {
	return WireStats{
		Calls:             s.Calls + o.Calls,
		BytesOut:          s.BytesOut + o.BytesOut,
		BytesIn:           s.BytesIn + o.BytesIn,
		Replies:           s.Replies + o.Replies,
		ReplyPayloadBytes: s.ReplyPayloadBytes + o.ReplyPayloadBytes,
		ReplyFP64Bytes:    s.ReplyFP64Bytes + o.ReplyFP64Bytes,
		ShardPulls:        s.ShardPulls + o.ShardPulls,
		ShardReplyBytes:   s.ShardReplyBytes + o.ShardReplyBytes,
		Retries:           s.Retries + o.Retries,
		BackoffNanos:      s.BackoffNanos + o.BackoffNanos,
	}
}

// Sub returns the field-wise difference s - o (delta between two snapshots
// of the same client set).
func (s WireStats) Sub(o WireStats) WireStats {
	return WireStats{
		Calls:             s.Calls - o.Calls,
		BytesOut:          s.BytesOut - o.BytesOut,
		BytesIn:           s.BytesIn - o.BytesIn,
		Replies:           s.Replies - o.Replies,
		ReplyPayloadBytes: s.ReplyPayloadBytes - o.ReplyPayloadBytes,
		ReplyFP64Bytes:    s.ReplyFP64Bytes - o.ReplyFP64Bytes,
		ShardPulls:        s.ShardPulls - o.ShardPulls,
		ShardReplyBytes:   s.ShardReplyBytes - o.ShardReplyBytes,
		Retries:           s.Retries - o.Retries,
		BackoffNanos:      s.BackoffNanos - o.BackoffNanos,
	}
}

// ReplyCompressionRatio returns fp64-baseline bytes over shipped bytes for
// the reply stream (1.0 for an uncompressed fleet, 0 when no replies).
func (s WireStats) ReplyCompressionRatio() float64 {
	if s.ReplyPayloadBytes == 0 {
		return 0
	}
	return float64(s.ReplyFP64Bytes) / float64(s.ReplyPayloadBytes)
}

// Stats returns a snapshot of the client's wire accounting.
func (c *PooledClient) Stats() WireStats {
	return WireStats{
		Calls:             c.calls.Load(),
		BytesOut:          c.bytesOut.Load(),
		BytesIn:           c.bytesIn.Load(),
		Replies:           c.replies.Load(),
		ReplyPayloadBytes: c.replyPayload.Load(),
		ReplyFP64Bytes:    c.replyFP64.Load(),
		ShardPulls:        c.shardPulls.Load(),
		ShardReplyBytes:   c.shardReplies.Load(),
		Retries:           c.retries.Load(),
		BackoffNanos:      c.backoffNanos.Load(),
	}
}

var _ Caller = (*PooledClient)(nil)

type pooledConn struct {
	mu      sync.Mutex
	conn    net.Conn
	rd      countingReader // wraps conn; detects partially-consumed frames
	frames  frameReader    // reply buffer, kept across calls and re-dials
	pending int            // replies owed on the wire by cancelled calls
	closed  bool

	// Cancellation machinery: one persistent watcher goroutine per peer,
	// armed and disarmed by value over channels, so watching a call for
	// cancellation allocates nothing. state is the in-flight call's
	// outcome register; the arm/disarm handshake guarantees the watcher
	// never touches a successor call's connection.
	state  atomic.Int32
	arm    chan armReq
	disarm chan struct{}
}

type armReq struct {
	ctx  context.Context
	conn net.Conn
}

// watch is the per-peer cancellation watcher: for every armed call it either
// observes ctx cancellation — poisoning that call's connection deadline to
// unblock its I/O — or is disarmed when the call completes first. The
// disarm handshake in both branches means the watcher is provably idle
// between calls.
func (pc *pooledConn) watch() {
	for a := range pc.arm {
		select {
		case <-a.ctx.Done():
			if pc.state.CompareAndSwap(callInFlight, callCancelled) {
				_ = a.conn.SetDeadline(pastDeadline)
			}
			<-pc.disarm
		case <-pc.disarm:
		}
	}
}

func (pc *pooledConn) disarmCall() { pc.disarm <- struct{}{} }

// countingReader counts consumed bytes so a cancelled read can prove the
// reply frame was untouched (and the connection therefore reusable).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewPooledClient returns a pooled client dialing over the given network.
func NewPooledClient(network transport.Network) *PooledClient {
	return NewPooledClientAs(network, "")
}

// NewPooledClientAs is NewPooledClient with a caller identity: every request
// that does not already carry one is stamped with self (see Request.From).
func NewPooledClientAs(network transport.Network, self string) *PooledClient {
	return &PooledClient{
		network: network,
		self:    self,
		conns:   make(map[string]*pooledConn),
	}
}

// Close tears down every pooled connection, stops the per-peer watchers and
// returns once they have exited. Calls issued after Close fail. The error is
// always nil; it makes the client an io.Closer, which is how its owners
// (core.Cluster) find out it holds resources.
func (c *PooledClient) Close() error {
	c.mu.Lock()
	c.closed = true
	for _, pc := range c.conns {
		pc.mu.Lock()
		if pc.conn != nil {
			_ = pc.conn.Close()
			pc.conn = nil
		}
		if !pc.closed {
			pc.closed = true
			close(pc.arm)
		}
		pc.mu.Unlock()
	}
	c.mu.Unlock()
	c.watchers.Wait()
	return nil
}

func (c *PooledClient) peer(addr string) (*pooledConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	pc, ok := c.conns[addr]
	if !ok {
		pc = &pooledConn{
			arm:    make(chan armReq),
			disarm: make(chan struct{}),
		}
		c.watchers.Add(1)
		go func() {
			defer c.watchers.Done()
			pc.watch()
		}()
		c.conns[addr] = pc
	}
	return pc, nil
}

// takeFanout pops a fanout off the client's free list, or builds one: a
// client that issues one pull at a time reuses one fanout forever.
func (c *PooledClient) takeFanout() *fanout {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		f := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return f
	}
	return &fanout{c: c}
}

// putFanout returns a fanout none of whose tasks is running any more.
func (c *PooledClient) putFanout(f *fanout) {
	f.parent, f.req.Vec = nil, nil // the caller's, not ours to keep alive
	c.mu.Lock()
	c.idle = append(c.idle, f)
	c.mu.Unlock()
}

// Per-call cancellation states; see Call.
const (
	callInFlight int32 = iota
	callFinished
	callCancelled
)

// pastDeadline is the sentinel deadline a cancelled call sets to unblock its
// connection I/O without closing the connection.
var pastDeadline = time.Unix(1, 0)

// errClientClosed is returned for calls issued after Close.
var errClientClosed = errors.New("rpc: pooled client closed")

// Retry policy for retriable idle-death failures: the first retry is
// immediate (the overwhelmingly common case is a single severed idle
// connection, and an instant re-dial restores it), later retries back off
// exponentially with jitter so a churn storm — every replica in the fleet
// re-dialing a node that just rejoined — spreads out instead of thundering
// in lockstep. maxCallAttempts bounds the total attempts per Call.
const (
	maxCallAttempts  = 4
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffCap  = 16 * time.Millisecond
)

// DefaultCallDeadline bounds a Call whose context carries no deadline of its
// own: with retries in the loop, an unbounded call against a peer that dies
// mid-churn could otherwise block its connection slot indefinitely.
const DefaultCallDeadline = 30 * time.Second

// jitterBackoff draws a jittered sleep in [d/2, d] from the client's
// splitmix64 stream (equal-jitter policy: half deterministic so backoff
// still separates attempt rounds, half random so concurrent retriers
// decorrelate).
func (c *PooledClient) jitterBackoff(d time.Duration) time.Duration {
	x := c.jitterState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + x%(half+1))
}

// Call performs one round trip over the peer's persistent connection,
// dialing lazily on first use and re-dialing after failures. A pooled
// connection can die while idle — a peer restart, a membership departure, or
// injected faults severing links (transport.Faulty severs on Crash and
// SetDelay) — in which case the first reuse fails before any reply byte
// arrives. Pull requests are idempotent reads, so such failures — and
// refused dials, the signature of a peer mid-rejoin — are retried
// transparently over a fresh connection instead of surfacing to the protocol
// layer: immediately first, then under bounded exponential backoff with
// jitter (see maxCallAttempts). Retry counts and backoff time are exposed in
// WireStats. A context without a deadline is bounded by DefaultCallDeadline.
// The request is encoded and checksummed once; every attempt re-sends those
// bytes.
func (c *PooledClient) Call(ctx context.Context, addr string, req Request) (tensor.Vector, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultCallDeadline)
		defer cancel()
	}
	f := c.takeFanout()
	f.seal(req)
	vec, err := c.roundTrip(ctx, addr, f, nil)
	c.putFanout(f)
	return vec, err
}

// roundTrip sends f's sealed frame to one peer and decodes the reply, into
// *dst when dst is non-nil. The destination survives retries: each attempt
// decodes over the same backing array, and only a successful decode re-points
// *dst. Every attempt writes the same frame bytes.
func (c *PooledClient) roundTrip(ctx context.Context, addr string, f *fanout, dst *tensor.Vector) (tensor.Vector, error) {
	pc, err := c.peer(addr)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()

	backoff := retryBackoffBase
	for attempt := 1; ; attempt++ {
		vec, retry, err := c.callLocked(ctx, pc, addr, f, dst)
		if err == nil || !retry || attempt >= maxCallAttempts || ctx.Err() != nil {
			return vec, err
		}
		c.retries.Add(1)
		if attempt > 1 {
			// Second and later retries sleep; the connection slot is held
			// across the sleep, which is intentional — same-peer calls are
			// serialized anyway, and releasing the lock mid-retry would
			// reorder the request stream.
			d := c.jitterBackoff(backoff)
			//lint:allow wallclock(retry backoff paces live-network redials; simulated runs dispatch through sim.Caller and never enter PooledClient)
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
				c.backoffNanos.Add(uint64(d))
			case <-ctx.Done():
				timer.Stop()
				return nil, err
			}
			if backoff < retryBackoffCap {
				backoff *= 2
			}
		}
	}
}

// callLocked is one call attempt over pc (held locked by the caller). retry
// reports a failure mode that is safe to repeat over a fresh connection: the
// connection had been reused (so it may simply have died while idle), no
// byte of this call's reply was consumed, and the failure was not a
// caller-initiated cancellation.
func (c *PooledClient) callLocked(ctx context.Context, pc *pooledConn, addr string, f *fanout, dst *tensor.Vector) (vec tensor.Vector, retry bool, err error) {
	if pc.closed {
		return nil, false, errClientClosed
	}
	reused := pc.conn != nil
	if pc.conn == nil {
		conn, err := c.network.Dial(ctx, addr)
		if err != nil {
			// A refused dial is the transient signature of churn — the peer
			// is mid-rejoin, or a partition is healing — so it is retried
			// under the bounded backoff. A peer that is genuinely gone keeps
			// refusing and the attempt budget bounds the cost.
			return nil, true, fmt.Errorf("rpc: pooled dial %q: %w", addr, err)
		}
		pc.conn = conn
		pc.rd = countingReader{r: conn}
		pc.pending = 0
	}
	// A call that was cancelled before touching the stream must not poison
	// the pooled connection for its successors.
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, false, ctxErr
	}
	// Clear any deadline poison left by a previously-cancelled call (its
	// watcher was disarmed before this call could acquire the lock).
	_ = pc.conn.SetDeadline(time.Time{})

	// Arm the watcher: it either poisons this connection's deadline on ctx
	// cancellation or is disarmed on return. The state CAS decides the
	// race between cancellation and completion (e.g. PullFirstQ cancelling
	// stragglers just as this peer's reply lands): whichever side
	// transitions first wins, and the loser does not touch the connection.
	pc.state.Store(callInFlight)
	pc.arm <- armReq{ctx: ctx, conn: pc.conn}
	defer pc.disarmCall()

	fail := func(stage string, err error) (tensor.Vector, bool, error) {
		_ = pc.conn.Close()
		pc.conn = nil
		// Cancellation is never retried; a fresh dial is pointless work
		// the caller has already abandoned.
		retriable := reused && pc.state.Load() != callCancelled
		return nil, retriable, fmt.Errorf("rpc: pooled %s %q: %w", stage, addr, wrapCtx(ctx, err))
	}

	// Drain replies owed by cancelled predecessors so the stream is
	// positioned at this call's response.
	for pc.pending > 0 {
		start := pc.rd.n
		stale, err := pc.frames.next(&pc.rd)
		if err != nil {
			if pc.state.Load() == callCancelled && pc.rd.n == start {
				// Cancelled before the stale reply arrived; the stream
				// is still clean, leave the debt for the next call.
				// Cancellation is caller-initiated: report it plainly.
				return nil, false, wrapCtx(ctx, err)
			}
			return fail("drain", err)
		}
		c.bytesIn.Add(uint64(frameHeaderSize + len(stale)))
		pc.pending--
	}

	c.calls.Add(1)
	c.bytesOut.Add(uint64(len(f.frame)))
	if n, err := pc.conn.Write(f.frame); err != nil {
		if n == 0 && pc.state.Load() == callCancelled {
			// Cancelled before the peer took a byte of the request: the
			// stream is clean and owes nothing, so the connection stays.
			return nil, false, wrapCtx(ctx, err)
		}
		// A failed or interrupted write leaves the request stream in an
		// unknown state; the connection cannot be reused.
		return fail("send to", err)
	}
	start := pc.rd.n
	payload, err := pc.frames.next(&pc.rd)
	if err != nil {
		if pc.state.Load() == callCancelled && pc.rd.n == start {
			// Request fully sent, no reply byte consumed: the peer still
			// owes one response on this stream. Keep the connection and
			// let the next call drain it. Cancellation is
			// caller-initiated: report it plainly, without formatting.
			pc.pending++
			return nil, false, wrapCtx(ctx, err)
		}
		if pc.rd.n != start {
			// A partially-consumed reply is a genuine mid-stream
			// failure, not an idle death: never retry.
			reused = false
		}
		return fail("receive from", err)
	}
	c.bytesIn.Add(uint64(frameHeaderSize + len(payload)))
	payloadLen := len(payload)
	req := &f.req
	resp, err := decodeResponseInto(dst, payload, replyDimBound(req))
	if err != nil {
		reused = false // protocol corruption, not an idle death
		return fail("decode from", err)
	}
	if err := correlate(req, resp); err != nil {
		// The stream handed this call some other request's reply (e.g. a
		// duplicated request frame shifted the conversation): the
		// connection's request/response alignment is unknowable, so tear
		// it down. Not retried on this attempt — the desync, unlike an
		// idle death, may reproduce systematically.
		reused = false
		return fail("correlate from", err)
	}
	pc.state.CompareAndSwap(callInFlight, callFinished)
	if !resp.OK {
		return nil, false, fmt.Errorf("rpc: %q: %w", addr, ErrNotServed)
	}
	// Reply accounting: what this reply cost as shipped, and what the same
	// vector would have cost under the fp64 passthrough (7-byte response
	// header + the tensor wire format) — the pair every compression ratio
	// in the artifacts derives from.
	c.replies.Add(1)
	c.replyPayload.Add(uint64(payloadLen))
	if req.Kind == KindGetShardPart || req.Ranged() {
		// Sharded-aggregation traffic: shard-part reassembly pulls and
		// ranged gradient pulls, attributed for the per-shard columns of
		// the sweep artifacts.
		c.shardPulls.Add(1)
		c.shardReplies.Add(uint64(payloadLen))
	}
	baseline := respHeaderSize // vector-less OK reply (ping)
	if resp.Vec != nil {
		baseline += compress.FP64EncodedSize(len(resp.Vec))
	}
	c.replyFP64.Add(uint64(baseline))
	return resp.Vec, false, nil
}
