package core

import (
	"errors"
	"fmt"
	"sync"

	"garfield/internal/gar"
	"garfield/internal/tensor"
)

var (
	// ErrConfig reports an invalid cluster or training configuration.
	ErrConfig = errors.New("core: invalid configuration")
)

// Aggregate applies the named GAR to the given vectors, constructing the
// rule for exactly len(vs) inputs — the inline `gar(gradients, f)` call of
// the paper's listings. Training loops that aggregate every iteration should
// use an Aggregator instead, which reuses the rule's scratch arena and the
// output vector across calls.
func Aggregate(rule string, f int, vs []tensor.Vector) (tensor.Vector, error) {
	r, err := gar.New(rule, len(vs), f)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	out, err := r.Aggregate(vs)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	return out, nil
}

// Aggregator is the steady-state aggregation path of the training loops: the
// rule (and its scratch arena) is constructed once and the output vector is
// reused across iterations, so per-step aggregation stops allocating — the
// memory-management optimization of Section 4.4 threaded through the
// protocol layer. An Aggregator is owned by one protocol goroutine and must
// not be shared.
type Aggregator struct {
	rule gar.Rule
	dst  tensor.Vector
}

// NewAggregator constructs the named GAR for n inputs tolerating f Byzantine
// ones, with reusable output storage.
func NewAggregator(rule string, n, f int) (*Aggregator, error) {
	r, err := gar.New(rule, n, f)
	if err != nil {
		return nil, fmt.Errorf("core: aggregator: %w", err)
	}
	return &Aggregator{rule: r}, nil
}

// Aggregate combines the vectors. The returned vector is owned by the
// Aggregator and valid until the next Aggregate call; callers that need to
// retain it across iterations must clone it.
func (a *Aggregator) Aggregate(vs []tensor.Vector) (tensor.Vector, error) {
	out, err := a.rule.AggregateInto(a.dst, vs)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	a.dst = out
	return out, nil
}

// aggCache holds one Aggregator per slot — a replica or shard index, stable
// across roster transitions — and rebuilds a slot only when the (rule, n, f)
// shape asked of it changes, so steady-state rounds reuse the rule's arena
// and output buffer; on the Cluster, they outlive a Run* call. The zero value
// is ready. get is safe for concurrent use (async replicas resolve their own
// slots); an Aggregator is used by the one goroutine driving its slot.
type aggCache struct {
	mu    sync.Mutex
	slots map[int]*aggSlot
}

type aggSlot struct {
	agg  *Aggregator
	rule string
	n, f int
}

func (ac *aggCache) get(slot int, rule string, n, f int) (*Aggregator, error) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if e := ac.slots[slot]; e != nil && e.rule == rule && e.n == n && e.f == f {
		return e.agg, nil
	}
	agg, err := NewAggregator(rule, n, f)
	if err != nil {
		return nil, err
	}
	if ac.slots == nil {
		ac.slots = make(map[int]*aggSlot)
	}
	ac.slots[slot] = &aggSlot{agg: agg, rule: rule, n: n, f: f}
	return agg, nil
}
