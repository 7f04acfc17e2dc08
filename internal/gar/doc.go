// Package gar implements the statistically-robust gradient aggregation rules
// (GARs) at the heart of Garfield (Section 3.1 of the paper): coordinate-wise
// Median, Krum and Multi-Krum, MDA (minimum-diameter averaging) and Bulyan,
// together with the non-resilient Average baseline and the TrimmedMean,
// GeoMedian and Phocas extensions.
//
// A GAR is a function (R^d)^q -> R^d: it takes q input vectors of which at
// most f may be Byzantine, and outputs one vector with statistical guarantees
// that make it safe to apply as an SGD step. Every rule validates the paper's
// resilience precondition relating n and f at construction time:
//
//	Average      f == 0      O(nd)
//	Median       n >= 2f+1   O(nd log^2 n) for n <= 32, O(nd) expected above
//	TrimmedMean  n >= 2f+1   O(nd log^2 n) for n <= 32, O(nd log n) above
//	Krum         n >= 2f+3   O(n^2 d)
//	Multi-Krum   n >= 2f+3   O(n^2 d)
//	MDA          n >= 2f+1   O(C(n,f) + n^2 d)
//	Bulyan       n >= 4f+3   O(n^2 d)
//	GeoMedian    n >= 2f+1   O(nd) per Weiszfeld iteration
//	Phocas       n >= 2f+1   as TrimmedMean, plus O(nd) for the closest n-f
//
// The log^2 n is the depth-times-width of a data-independent sorting network:
// more comparisons than a sort, none of them a branch (see below).
//
// Violating a precondition fails New with ErrRequirement; unknown names fail
// with ErrUnknownRule. The scenario engine surfaces both at spec-validation
// time, so an infeasible (n, f, rule) triple is rejected before any cluster
// is spawned.
//
// # The Rule contract
//
// Rule mirrors the paper's two-call interface: construction plays the role
// of init(name, n, f), Aggregate the role of aggregate(tensors...). The
// contract every implementation satisfies:
//
//   - Aggregate takes exactly N() vectors of equal dimension and returns a
//     freshly-allocated output; it never mutates its inputs.
//   - AggregateInto is Aggregate with caller-owned output storage — the
//     reuse convention introduced with the zero-allocation hot path (PR 1).
//     The result is written into dst when dst's capacity suffices, and into
//     a fresh vector otherwise; the written vector is returned. dst may be
//     nil and must not alias any input. Reusing one dst across calls makes
//     steady-state aggregation allocation-free; Aggregate is implemented as
//     AggregateInto(nil, inputs).
//   - A Rule value owns preallocated scratch state (see scratch.go): calls
//     on one value are serialized internally, so sharing a Rule across
//     goroutines is safe but not parallel. Callers wanting concurrent
//     aggregation construct one Rule per goroutine — core.Aggregator does
//     exactly this, one per protocol loop.
//
// # Performance structure
//
// The O(n^2 d) rules share a blocked Gram-matrix distance kernel
// (d²(i,j) = ‖i‖² + ‖j‖² − 2⟨i,j⟩, AVX2+FMA assembly with a purego
// fallback) and a per-rule scratch arena, making steady-state aggregation
// through AggregateInto allocation-free — the memory-management discipline
// of Section 4.4 of the paper.
//
// The coordinate-wise rules (Median, TrimmedMean, Phocas, Bulyan's second
// phase) share one kernel, a coordSpec away from each other. Every pool share
// owns a contiguous range of coordinates (Section 4.3's "continuous share");
// for n <= 32 it copies an L1-sized tile — n rows of 4096/n coordinates —
// into contiguous scratch and runs a Batcher merge-exchange network down the
// rows, each comparator one branch-free min/max pass over two rows: the full
// sort for the trimmed sums and the closest-k means, a network pruned to the
// comparators that feed the middle ranks for a bare median. Above 32 a share
// gathers one column at a time and selects (introselect) or sorts it. NaN,
// which an adversary can send, is read as +Inf on both paths. Order
// statistics are exact, so the two paths and any share count give the same
// bits (tile_test.go checks both against one per-column reference).
//
// See PERFORMANCE.md for the measured numbers and golden_test.go for the
// bit-identical equivalence proofs against the seed implementations.
package gar
