package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// ByzantineServer is the adversarial parameter-server replica of the MSMW
// topology: it wraps an ordinary Server's RPC surface and corrupts the
// models (and aggregated gradients) it serves to its peers. Where the
// attack-based Byzantine server of ServerConfig.Attack corrupts every reply
// the same way, the wrapper implements the behaviours that need server-side
// state or per-puller control — most importantly equivocation, the canonical
// Byzantine-consensus adversary that answers different pullers with
// different values in the same round. The MSMW model contraction (robust
// model aggregation every iteration) is exactly the defense the paper fields
// against such replicas; the chaos invariant harness proves it holds while a
// plain-averaging contraction diverges.
//
// All corruption is seeded and keyed by (request kind, step, puller
// identity), so deterministic-mode runs replay bit-identically: the same
// puller asking about the same step always receives the same corrupted
// vector, whatever the arrival order.
type ByzantineServer struct {
	inner *Server
	seed  uint64

	mu    sync.Mutex
	mode  string
	scale float64
}

// Byzantine-server modes accepted by NewByzantineServer and SetMode.
const (
	// ByzModeHonest serves the wrapped server's replies unchanged — the
	// declared-Byzantine-but-benign replica of the throughput experiments,
	// and the state a scheduled byz-server fault flips away from.
	ByzModeHonest = "honest"
	// ByzModeRandom replaces served vectors with seeded Gaussian noise at
	// the configured scale (the paper's random-vectors attack, server side).
	ByzModeRandom = "random"
	// ByzModeReversed serves the true vector scaled by -100 (the paper's
	// reversed-vectors attack, server side).
	ByzModeReversed = "reversed"
	// ByzModeStale serves the replica's state unchanged but never lets it
	// advance — an honest-looking replica frozen in the past. (An undriven
	// Byzantine replica is naturally stale; the mode exists to name that
	// behaviour explicitly and to pin it against future protocol changes
	// that might start driving Byzantine replicas.)
	ByzModeStale = "stale"
	// ByzModeEquivocate serves the true vector plus per-puller seeded noise:
	// every puller of the same step receives a different model, no two of
	// which agree — the split-brain adversary MSMW's contraction defuses.
	ByzModeEquivocate = "equivocate"
)

// ByzModes lists the recognized modes in a stable order.
func ByzModes() []string {
	return []string{ByzModeHonest, ByzModeRandom, ByzModeReversed,
		ByzModeStale, ByzModeEquivocate}
}

// ValidByzMode reports whether mode is recognized.
func ValidByzMode(mode string) bool {
	switch mode {
	case ByzModeHonest, ByzModeRandom, ByzModeReversed, ByzModeStale, ByzModeEquivocate:
		return true
	}
	return false
}

// DefaultByzScale is the noise scale of the random and equivocate modes when
// the config leaves it zero: large against unit-scale model parameters, so
// an undefended aggregation visibly diverges.
const DefaultByzScale = 10.0

// NewByzantineServer wraps inner with the given initial mode ("" means
// honest). seed drives all corruption noise; scale <= 0 selects
// DefaultByzScale.
func NewByzantineServer(inner *Server, mode string, seed uint64, scale float64) (*ByzantineServer, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: byzantine server needs an inner server", ErrConfig)
	}
	if mode == "" {
		mode = ByzModeHonest
	}
	if !ValidByzMode(mode) {
		return nil, fmt.Errorf("%w: unknown byzantine server mode %q (want one of %v)",
			ErrConfig, mode, ByzModes())
	}
	if scale <= 0 {
		scale = DefaultByzScale
	}
	return &ByzantineServer{inner: inner, seed: seed, mode: mode, scale: scale}, nil
}

var _ rpc.Handler = (*ByzantineServer)(nil)

// Mode returns the current behaviour.
func (b *ByzantineServer) Mode() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mode
}

// SetMode switches the behaviour at runtime — the byz-server scheduled fault
// of the chaos engine: a replica that served honestly for the first k
// iterations turns adversarial.
func (b *ByzantineServer) SetMode(mode string) error {
	if mode == "" {
		mode = ByzModeHonest
	}
	if !ValidByzMode(mode) {
		return fmt.Errorf("%w: unknown byzantine server mode %q (want one of %v)",
			ErrConfig, mode, ByzModes())
	}
	b.mu.Lock()
	b.mode = mode
	b.mu.Unlock()
	return nil
}

// Handle implements rpc.Handler: model and aggregated-gradient pulls are
// answered through the current mode's corruption; everything else (pings,
// unknown kinds) passes through to the wrapped server.
func (b *ByzantineServer) Handle(req rpc.Request) rpc.Response {
	switch req.Kind {
	case rpc.KindGetModel, rpc.KindGetAggrGrad:
	default:
		return b.inner.Handle(req)
	}
	b.mu.Lock()
	mode, scale := b.mode, b.scale
	b.mu.Unlock()

	resp := b.inner.Handle(req)
	if mode == ByzModeHonest || mode == ByzModeStale || !resp.OK {
		// Stale is honesty without progress: an undriven replica's state
		// already never advances, so the reply is served as-is.
		return resp
	}
	// The wrapped server gives its reply vector away (FreeVec), so it is
	// corrupted in place.
	v := resp.Vec
	switch mode {
	case ByzModeRandom:
		b.replyRNG(req, "").FillNormal(v, 0, scale)
	case ByzModeReversed:
		v.ScaleInPlace(-100)
	case ByzModeEquivocate:
		rng := b.replyRNG(req, req.From)
		for i := range v {
			v[i] += scale * rng.Norm()
		}
	}
	return resp
}

// replyRNG derives the seeded noise stream for one reply: FNV-64a over the
// server seed, the request kind and step, and (for equivocation) the
// puller's identity. The same (kind, step, puller) triple always draws the
// same stream, which is what keeps deterministic-mode chaos runs
// bit-identical across repetitions.
func (b *ByzantineServer) replyRNG(req rpc.Request, from string) *tensor.RNG {
	h := fnv.New64a()
	var buf [13]byte
	binary.LittleEndian.PutUint64(buf[:8], b.seed)
	buf[8] = byte(req.Kind)
	binary.LittleEndian.PutUint32(buf[9:], req.Step)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(from))
	return tensor.NewRNG(h.Sum64())
}
