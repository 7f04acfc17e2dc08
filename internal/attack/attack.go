package attack

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"garfield/internal/tensor"
)

// Attack corrupts the payload a Byzantine node sends in one round.
type Attack interface {
	// Name returns the canonical lower-case attack name.
	Name() string
	// Apply returns the corrupted vector to send in place of honest. If
	// ok is false the node omits its reply entirely (a drop fault).
	// honestPeers carries the gradients of the correct nodes for
	// collusion-style attacks; nil for oblivious attacks.
	//
	// Apply owns honest for the duration of the call and the caller owns the
	// result: the built-in attacks write their output over honest and return
	// it, so a reply costs no second d-sized vector. The caller may recycle
	// both vectors afterwards (tensor.PutVec), so an attack must keep no
	// reference to either; honestPeers is read-only.
	Apply(honest tensor.Vector, honestPeers []tensor.Vector) (v tensor.Vector, ok bool)
}

// ErrUnknownAttack is returned by New for an unrecognized attack name.
var ErrUnknownAttack = errors.New("attack: unknown attack")

// Names of the built-in attacks, accepted by New.
const (
	NameNone           = "none"
	NameRandom         = "random"
	NameReversed       = "reversed"
	NameDrop           = "drop"
	NameLittleIsEnough = "littleisenough"
	NameFallOfEmpires  = "fallofempires"
	NameStale          = "stale"
)

// New constructs an attack by name with its paper-default parameters.
// The rng seeds stochastic attacks; it may be nil for deterministic ones.
func New(name string, rng *tensor.RNG) (Attack, error) {
	switch strings.ToLower(name) {
	case NameNone:
		return None{}, nil
	case NameRandom:
		return NewRandom(rng, 1.0), nil
	case NameReversed:
		return Reversed{Factor: -100}, nil
	case NameDrop:
		return Drop{}, nil
	case NameLittleIsEnough:
		return LittleIsEnough{Z: 1.5}, nil
	case NameFallOfEmpires:
		return FallOfEmpires{Epsilon: 1.1}, nil
	case NameStale:
		return &Stale{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownAttack, name)
	}
}

// Names returns the attack names New accepts, in a stable order.
func Names() []string {
	return []string{NameNone, NameRandom, NameReversed, NameDrop,
		NameLittleIsEnough, NameFallOfEmpires, NameStale}
}

// None is the identity attack: the node behaves honestly. It exists so
// Byzantine node objects can be configured benign in control experiments.
type None struct{}

var _ Attack = None{}

// Name implements Attack.
func (None) Name() string { return NameNone }

// Apply implements Attack.
func (None) Apply(honest tensor.Vector, _ []tensor.Vector) (tensor.Vector, bool) {
	return honest, true
}

// Random replaces the payload with i.i.d. Gaussian noise of the configured
// scale — the paper's "random vectors" attack (Figure 5a). The mutex keeps
// the shared RNG safe under the RPC server's concurrent Handle calls (one
// attack instance may back several Byzantine nodes).
type Random struct {
	mu    sync.Mutex
	rng   *tensor.RNG
	scale float64
}

var _ Attack = (*Random)(nil)

// NewRandom returns a random-vector attack with the given noise scale.
func NewRandom(rng *tensor.RNG, scale float64) *Random {
	if rng == nil {
		rng = tensor.NewRNG(0xbad)
	}
	return &Random{rng: rng, scale: scale}
}

// Name implements Attack.
func (r *Random) Name() string { return NameRandom }

// Apply implements Attack.
func (r *Random) Apply(honest tensor.Vector, _ []tensor.Vector) (tensor.Vector, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng.FillNormal(honest, 0, r.scale)
	return honest, true
}

// Reversed multiplies the honest payload by a large negative factor
// (-100 in the paper) — the "reversed and amplified vectors" attack
// (Figure 5b). Against plain averaging it pushes the model in the exact
// wrong direction.
type Reversed struct {
	// Factor is the multiplier applied to the honest vector; the paper
	// uses -100.
	Factor float64
}

var _ Attack = Reversed{}

// Name implements Attack.
func (Reversed) Name() string { return NameReversed }

// Apply implements Attack.
func (a Reversed) Apply(honest tensor.Vector, _ []tensor.Vector) (tensor.Vector, bool) {
	honest.ScaleInPlace(a.Factor)
	return honest, true
}

// Drop omits the reply entirely, modelling message omission / mute nodes.
type Drop struct{}

var _ Attack = Drop{}

// Name implements Attack.
func (Drop) Name() string { return NameDrop }

// Apply implements Attack.
func (Drop) Apply(tensor.Vector, []tensor.Vector) (tensor.Vector, bool) {
	return nil, false
}

// LittleIsEnough (Baruch et al. 2019) has the colluding Byzantine nodes send
// mean - z*sigma of the honest gradients, a perturbation small enough to slip
// past distance-based GARs yet biased enough to prevent convergence.
type LittleIsEnough struct {
	// Z is the number of standard deviations to shift by; the original
	// paper picks z around 1-1.5 depending on n and f.
	Z float64
}

var _ Attack = LittleIsEnough{}

// Name implements Attack.
func (LittleIsEnough) Name() string { return NameLittleIsEnough }

// Apply implements Attack.
func (a LittleIsEnough) Apply(honest tensor.Vector, honestPeers []tensor.Vector) (tensor.Vector, bool) {
	mean, ok := peerMean(honest, honestPeers)
	if !ok {
		// Without visibility into peers, degrade to reversing the local
		// gradient (still adversarial, never crash the pipeline).
		honest.ScaleInPlace(-1)
		return honest, true
	}
	// Coordinate-wise variance of the peers in a borrowed scratch vector.
	sq := tensor.GetVec(len(mean))
	clear(sq)
	for _, v := range honestPeers {
		for i := range v {
			d := v[i] - mean[i]
			sq[i] += d * d
		}
	}
	inv := 1 / float64(len(honestPeers))
	for i := range mean {
		mean[i] -= a.Z * math.Sqrt(sq[i]*inv)
	}
	tensor.PutVec(sq)
	return mean, true
}

// FallOfEmpires (Xie et al. 2019) sends -epsilon times the honest mean:
// inner-product manipulation that keeps the vector colinear with the honest
// direction but flips its sign.
type FallOfEmpires struct {
	// Epsilon scales the negated mean; values near 1 are the published
	// sweet spot.
	Epsilon float64
}

var _ Attack = FallOfEmpires{}

// Name implements Attack.
func (FallOfEmpires) Name() string { return NameFallOfEmpires }

// Apply implements Attack.
func (a FallOfEmpires) Apply(honest tensor.Vector, honestPeers []tensor.Vector) (tensor.Vector, bool) {
	mean, ok := peerMean(honest, honestPeers)
	if !ok {
		mean = honest
	}
	mean.ScaleInPlace(-a.Epsilon)
	return mean, true
}

// Stale always replays the first payload it ever computed — the staleness
// fault of asynchronous training: a node stuck on an ancient model state
// keeps contributing outdated gradients. Unlike Drop it stays live, so
// quorum-based liveness checks cannot filter it.
type Stale struct {
	mu     sync.Mutex
	frozen tensor.Vector
}

var _ Attack = (*Stale)(nil)

// Name implements Attack.
func (*Stale) Name() string { return NameStale }

// Apply implements Attack.
func (s *Stale) Apply(honest tensor.Vector, _ []tensor.Vector) (tensor.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen == nil {
		s.frozen = honest.Clone() // once per attack, not per reply
	}
	out := tensor.Resize(honest, len(s.frozen))
	copy(out, s.frozen)
	return out, true
}

// peerMean overwrites dst with the coordinate-wise mean of peers. It reports
// false, leaving dst untouched, when there are no peers or they disagree on
// the dimension.
func peerMean(dst tensor.Vector, peers []tensor.Vector) (tensor.Vector, bool) {
	if _, err := tensor.CheckSameDim(peers); err != nil {
		return nil, false
	}
	mean, err := tensor.MeanInto(dst, peers)
	return mean, err == nil
}
