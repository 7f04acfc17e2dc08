// Package analysis is the repo's static-analysis layer: a small, dependency-free
// go/analysis-style framework plus four analyzers that turn the codebase's
// hardest-won runtime invariants into compile-time errors.
//
// The four analyzers, each grounded in a contract a runtime regression already
// defends:
//
//   - wallclock: forbids direct wall-clock reads (time.Now, time.Sleep,
//     time.After, ...) in the deterministic packages reachable from protocol
//     runners and the discrete-event simulator. The runtime counterpart is the
//     TestSimHostLoadIndependent audit; the analyzer catches the violation at
//     build time on every path, exercised or not.
//
//   - seededrand: forbids the global math/rand source and wall-clock-seeded
//     generators everywhere in the module. Randomness must flow through
//     injected seeded streams (the SplitMix64 / FNV domain-separation pattern
//     used throughout core, scenario and transport). The runtime counterpart
//     is TestAttackSeedDomainSeparated.
//
//   - bufdiscipline: a flow-sensitive check that every pooled-buffer
//     acquisition (compress.GetBuf, tensor.GetVec, raw sync.Pool) is released on every non-escaping path and never
//     referenced after release, and that a borrowed vector leaves in a reply
//     only under the FreeVec mark. The runtime counterpart is the zero-alloc
//     steady-state bench suite — which only notices a leak as a slow drift in
//     allocation counts.
//
//   - detorder: flags iteration over maps whose results feed ordered outputs
//     (slice appends, writer calls, channel sends) in deterministic-mode
//     packages — the class of bug behind the canonical-reply-ordering work in
//     the scenario engine's bit-identical artifact contract.
//
// Every analyzer honors a single escape hatch: a comment of the form
//
//	//lint:allow <analyzer>(<reason>)
//
// on the offending line or the line directly above it suppresses the
// diagnostic. The reason is mandatory — an empty reason does not suppress —
// so every exemption in the tree documents why the invariant does not apply.
//
// The framework half of the package (Analyzer, Pass, Load, RunAnalyzers,
// VetUnit) deliberately mirrors the golang.org/x/tools/go/analysis API shape,
// but is built only on the standard library: packages are enumerated and
// type-checked via `go list -export` export data, and cmd/garfield-lint
// speaks the `go vet -vettool` unit-checker protocol directly. See
// TESTING.md, "Static analysis layer".
package analysis
