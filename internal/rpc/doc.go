// Package rpc implements Garfield's pull-based communication layer
// (Section 4.1 of the paper): a compact binary protocol over any
// transport.Network, a per-node RPC server, and clients whose PullFirstQ
// primitive returns the fastest q replies out of n peers — the mechanism
// behind get_gradients(t, q) and get_models(q).
//
// # Roles and contracts
//
// The layer is oblivious to node roles; three small contracts connect it to
// the rest of the system:
//
//   - Handler is the server side: Handle(Request) Response. Garfield node
//     objects (core.Server, core.Worker and their Byzantine variants)
//     implement it. Handlers must be safe for concurrent use — the server
//     dispatches requests from many connections in parallel, which is how
//     the paper parallelizes replicated communication. req.Vec is only
//     valid for the duration of the call; retain a copy if needed.
//   - Caller is the client side: one Call round trip plus the
//     first-q-of-n PullFirstQ collection primitive. PooledClient
//     (persistent connections) implements it.
//   - Request/Response frame a Kind (gradient, model, aggregated-gradient,
//     ping), a step counter, and one tensor.Vector payload, encoded with
//     the unrolled codec of internal/tensor.
//
// # Pull semantics
//
// PullFirstQ fans a request out to every peer in parallel and returns as
// soon as q replies arrived, cancelling the stragglers. q == n is the
// synchronous mode (wait for everyone); q < n tolerates n - q slow, crashed
// or mute peers — the (q_w <= n_w) contract of the paper's communication
// abstractions. Replies preserve arrival order (fastest first); protocol
// code that needs a scheduling-independent order re-sorts them (core's
// servers sort every pulled set by peer address, in every mode).
//
// PooledClient keeps one persistent connection per peer (Section 4.1's
// channel reuse): steady-state pulls pay no dial, straggler cancellation
// cuts a request write the peer has not started reading and leaves that
// clean connection pooled, or one whose request went out whole with its reply
// drained by the next call, and a connection that died while idle
// (peer restart, injected link fault) is re-dialed transparently within one
// Call — pulls are idempotent reads, so the retry is safe. A pull's request
// is encoded once into a frame the client owns and shares across the peers,
// and each connection end owns its read and write buffers (see fanout and
// frameReader), so the fixed cost of a pull does not grow with the number of
// peers.
package rpc
