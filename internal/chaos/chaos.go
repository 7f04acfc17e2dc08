// Package chaos is the invariant-checking harness of the chaos engine: it
// runs scenario specs under seeded fault programs (network partitions,
// link corruption and reordering, Byzantine server replicas) and asserts
// machine-checkable resilience properties instead of eyeballing accuracy
// curves:
//
//   - safety: under at most f Byzantine workers / fs Byzantine servers, the
//     honest replicas' model stays bounded — and the same adversary against
//     a non-robust contraction (model_rule=average) visibly diverges, so
//     the bound is evidence of the defense, not of a weak adversary;
//   - liveness: training survives the fault window, and after the heal (or
//     the last membership transition) every scheduled round commits an
//     update again — counted in rounds, never in wall-clock rates;
//   - determinism: two runs at the same seed emit bit-identical metrics
//     CSV, making every chaos finding replayable from (preset, seed);
//   - corruption-rejected: payloads mangled by a corrupt link are rejected
//     by the RPC checksum layer (counted), never silently aggregated.
//
// The harness is a library (the package tests prove the properties in CI)
// and a CLI: `garfield-scenarios chaos` runs the same suites, and the
// "chaos" experiment renders them as a table.
package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"garfield/internal/core"
	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/rpc"
	"garfield/internal/scenario"
)

// Tunable invariant thresholds. They are deliberately loose: the point is
// catching divergence, stalls and silent poisoning, not benchmarking.
const (
	// SafetyNormBound is the honest-model L2 norm a robust run must stay
	// under at the end of a chaos preset (trained models on the demo tasks
	// sit well below it).
	SafetyNormBound = 10.0
	// ContrastRatio is how much larger the non-robust contrast run's final
	// norm must be before we call the adversary "defended against" rather
	// than "harmless".
	ContrastRatio = 2.0
	// JoinSpreadBound is the largest L2 distance a just-bootstrapped
	// replica may end from the rest of the honest fleet for the
	// join-converges invariant to hold (the model contraction should pull
	// it far below this).
	JoinSpreadBound = 1.0
)

// Options tunes a harness run.
type Options struct {
	// Quick divides iteration counts (and fault boundaries) by three so
	// the whole suite runs in seconds; properties are asserted either way.
	Quick bool
	// Seed overrides the preset seed when non-zero (both runs of the
	// determinism invariant use the same value).
	Seed uint64
}

// Check is one invariant's verdict.
type Check struct {
	// Name is the invariant: safety, liveness, determinism,
	// corruption-rejected or completes.
	Name string
	// Passed reports the verdict.
	Passed bool
	// Detail is the measured evidence ("post-heal 812.3 ups vs pre 845.1").
	Detail string
}

// Report is one preset's harness outcome.
type Report struct {
	// Preset is the scenario preset the suite ran.
	Preset string
	// Checks are the invariant verdicts.
	Checks []Check
	// FinalAccuracy and Updates summarize the primary run.
	FinalAccuracy float64
	Updates       int
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return true
}

// suite names the invariants each chaos preset is checked against.
var suites = map[string][]string{
	"chaos-equivocate":      {"completes", "safety", "determinism"},
	"chaos-byz-flip":        {"completes", "safety", "determinism"},
	"chaos-partition-heal":  {"completes", "liveness"},
	"chaos-corrupt-link":    {"completes", "safety", "corruption-rejected"},
	"chaos-reorder":         {"completes", "safety"},
	"chaos-churn-attack":    {"completes", "safety", "membership", "churn-liveness", "determinism"},
	"chaos-join-bootstrap":  {"completes", "safety", "membership", "join-converges"},
	"chaos-shard-crash":     {"completes", "safety", "shard-integrity", "determinism"},
	"chaos-shard-partition": {"safety", "shard-integrity", "liveness"},
}

// Presets returns the chaos preset names the harness knows, in a stable
// order (the scenario registry holds the specs themselves).
func Presets() []string {
	return []string{"chaos-equivocate", "chaos-byz-flip",
		"chaos-partition-heal", "chaos-corrupt-link", "chaos-reorder",
		"chaos-churn-attack", "chaos-join-bootstrap",
		"chaos-shard-crash", "chaos-shard-partition"}
}

// Run executes one chaos preset's invariant suite.
func Run(preset string, opt Options) (*Report, error) {
	checks, ok := suites[preset]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown chaos preset %q (known: %v)", preset, Presets())
	}
	sp, err := scenario.ByName(preset)
	if err != nil {
		return nil, err
	}
	if opt.Seed != 0 {
		sp.Seed = opt.Seed
	}
	if opt.Quick {
		sp = shrink(sp, 3)
	}

	rejectsBefore := rpc.ChecksumRejects()
	run, err := execute(sp)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", preset, err)
	}
	rejectsDelta := rpc.ChecksumRejects() - rejectsBefore

	rep := &Report{
		Preset:        preset,
		FinalAccuracy: run.finalAccuracy(),
		Updates:       run.updates(),
	}
	for _, name := range checks {
		var c Check
		switch name {
		case "completes":
			c = checkCompletes(sp, run)
		case "safety":
			c = checkSafety(sp, run)
		case "liveness":
			c = checkRecovered("liveness", "heal", 3, run)
		case "determinism":
			c = checkDeterminism(sp, run)
		case "corruption-rejected":
			c = checkCorruptionRejected(run, rejectsDelta)
		case "membership":
			c = checkMembership(sp, run)
		case "churn-liveness":
			c = checkRecovered("churn-liveness", "churn", 2, run)
		case "join-converges":
			c = checkJoinConverges(run)
		case "shard-integrity":
			c = checkShardIntegrity(sp, run)
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep, nil
}

// RunAll executes every chaos preset's suite.
func RunAll(opt Options) ([]*Report, error) {
	var out []*Report
	for _, preset := range Presets() {
		rep, err := Run(preset, opt)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// shrink divides the run length and fault boundaries by k for quick mode,
// preserving boundary order and validity.
func shrink(sp scenario.Spec, k int) scenario.Spec {
	iters := sp.Iterations / k
	if iters < 6 {
		iters = 6
	}
	sp.Iterations = iters
	for i := range sp.Faults {
		after := sp.Faults[i].After / k
		if after < 1 {
			after = 1
		}
		if after >= iters {
			after = iters - 1
		}
		sp.Faults[i].After = after
	}
	return sp
}

// runOutcome bundles one executed spec: its per-segment results, the honest
// model norm at the end, the final membership roster, and the corruption
// stats of any chaos links.
type runOutcome struct {
	segments  []scenario.Segment
	modelNorm float64
	corrupted uint64 // frames the link programs corrupted

	// Final roster state, read before the cluster closes: the membership
	// epoch, the active fleet counts, and the largest L2 distance between
	// live honest replicas' models (the join-converges evidence).
	epoch            uint64
	workers, servers int
	spread           float64
}

func (r *runOutcome) updates() int {
	n := 0
	for _, seg := range r.segments {
		n += seg.Result.Updates
	}
	return n
}

func (r *runOutcome) finalAccuracy() float64 {
	for i := len(r.segments) - 1; i >= 0; i-- {
		if pts := r.segments[i].Result.Accuracy.Points; len(pts) > 0 {
			return pts[len(pts)-1].Y
		}
	}
	return 0
}

// metricsCSV renders the run's accuracy-vs-iteration curve as CSV with full
// float precision — the artifact the determinism invariant byte-compares.
func (r *runOutcome) metricsCSV() string {
	var b strings.Builder
	b.WriteString("iteration,accuracy\n")
	for _, seg := range r.segments {
		for _, p := range seg.Result.Accuracy.Points {
			b.WriteString(strconv.FormatFloat(p.X+float64(seg.Start), 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// execute materializes and drives one spec, collecting the outcome.
func execute(sp scenario.Spec) (*runOutcome, error) {
	c, err := scenario.NewCluster(sp)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	segments, err := scenario.RunSegmented(c, sp)
	if err != nil {
		return nil, err
	}
	ro := c.Roster()
	out := &runOutcome{
		segments:  segments,
		modelNorm: c.Server(0).Params().Norm(),
		epoch:     ro.Epoch,
		workers:   ro.NW(),
		servers:   ro.NPS(),
		spread:    c.ModelSpread(),
	}
	for i := 0; i < sp.NW; i++ {
		out.corrupted += c.WorkerLinkStats(i).Corrupted
	}
	nps := sp.NPS
	if sp.Topology == scenario.TopoDecentralized {
		nps = sp.NW
	}
	for i := 0; i < nps; i++ {
		out.corrupted += c.ServerLinkStats(i).Corrupted
	}
	return out, nil
}

// checkCompletes: every scheduled iteration produced a model update — the
// fault program cost freshness or peers, never rounds.
func checkCompletes(sp scenario.Spec, run *runOutcome) Check {
	got := run.updates()
	return Check{
		Name:   "completes",
		Passed: got == sp.Iterations,
		Detail: fmt.Sprintf("%d/%d iterations updated the model", got, sp.Iterations),
	}
}

// checkSafety: the honest model norm is finite and bounded, and the same
// adversary against a plain-averaging model contraction (the non-robust
// contrast) diverges past ContrastRatio x the robust norm. Presets without
// a server-side adversary skip the contrast (the bound alone is the claim).
func checkSafety(sp scenario.Spec, run *runOutcome) Check {
	if math.IsNaN(run.modelNorm) || math.IsInf(run.modelNorm, 0) || run.modelNorm > SafetyNormBound {
		return Check{Name: "safety", Passed: false,
			Detail: fmt.Sprintf("honest model norm %.3g exceeds bound %.3g", run.modelNorm, SafetyNormBound)}
	}
	if !hasServerAdversary(sp) {
		return Check{Name: "safety", Passed: true,
			Detail: fmt.Sprintf("honest model norm %.3g <= %.3g", run.modelNorm, SafetyNormBound)}
	}
	contrast := sp
	contrast.ModelRule = gar.NameAverage
	contrastRun, err := execute(contrast)
	if err != nil {
		return Check{Name: "safety", Passed: false,
			Detail: fmt.Sprintf("contrast run (model_rule=average) failed: %v", err)}
	}
	needed := ContrastRatio * run.modelNorm
	if run.modelNorm == 0 {
		needed = ContrastRatio
	}
	diverged := math.IsNaN(contrastRun.modelNorm) || math.IsInf(contrastRun.modelNorm, 0) ||
		contrastRun.modelNorm >= needed
	return Check{
		Name:   "safety",
		Passed: diverged,
		Detail: fmt.Sprintf("robust norm %.3g <= %.3g; averaging contrast norm %.3g (needs >= %.3g to prove the adversary bites)",
			run.modelNorm, SafetyNormBound, contrastRun.modelNorm, needed),
	}
}

// hasServerAdversary reports whether the spec fields a Byzantine server
// (initial mode or scheduled byz-server flip) the contrast run can expose.
func hasServerAdversary(sp scenario.Spec) bool {
	if sp.ServerByzMode != "" && sp.ServerByzMode != core.ByzModeHonest {
		return true
	}
	for _, flt := range sp.Faults {
		if flt.Kind == scenario.FaultByzServer && flt.Mode != "" && flt.Mode != core.ByzModeHonest {
			return true
		}
	}
	return false
}

// checkRecovered is the liveness and churn-liveness verdict: the run got
// through its whole fault schedule without an error, and every round
// scheduled after the last fault (a heal, or the final membership
// transition) committed an update — the system did not merely survive, it
// is making full progress again. Wall-clock throughput before and after is
// reported as evidence only: a ratio of two rates measured over
// millisecond-scale segments says more about the host than about the code.
func checkRecovered(name, fault string, minSegments int, run *runOutcome) Check {
	if len(run.segments) < minSegments {
		return Check{Name: name, Passed: false,
			Detail: fmt.Sprintf("need %d segments around the %s; got %d", minSegments, fault, len(run.segments))}
	}
	pre, last := run.segments[0], run.segments[len(run.segments)-1]
	return Check{
		Name:   name,
		Passed: last.Result.Updates == last.End-last.Start,
		Detail: fmt.Sprintf("post-%s rounds [%d, %d) committed %d updates; %.1f ups after vs %.1f ups before",
			fault, last.Start, last.End, last.Result.Updates, last.Result.UpdatesPerSec(), pre.Result.UpdatesPerSec()),
	}
}

// checkDeterminism re-executes the spec at the same seed and byte-compares
// the metrics CSV of both runs.
func checkDeterminism(sp scenario.Spec, run *runOutcome) Check {
	again, err := execute(sp)
	if err != nil {
		return Check{Name: "determinism", Passed: false, Detail: fmt.Sprintf("replay failed: %v", err)}
	}
	a, b := run.metricsCSV(), again.metricsCSV()
	if a != b {
		return Check{Name: "determinism", Passed: false,
			Detail: fmt.Sprintf("metrics CSV differs across runs at seed %d (%d vs %d bytes)", sp.Seed, len(a), len(b))}
	}
	sameNorm := run.modelNorm == again.modelNorm
	return Check{
		Name:   "determinism",
		Passed: sameNorm,
		Detail: fmt.Sprintf("two runs at seed %d: identical %d-byte metrics CSV, model norm %.17g (replay %.17g)",
			sp.Seed, len(a), run.modelNorm, again.modelNorm),
	}
}

// ReportTable renders invariant verdicts as the shared {preset, invariant,
// verdict, evidence} table both the CLI and the chaos experiment print.
// failed reports how many invariants did not hold.
func ReportTable(title string, reports []*Report) (t *metrics.Table, failed int) {
	t = &metrics.Table{
		Title:  title,
		Header: []string{"preset", "invariant", "verdict", "evidence"},
	}
	for _, rep := range reports {
		for _, c := range rep.Checks {
			verdict := "PASS"
			if !c.Passed {
				verdict = "FAIL"
				failed++
			}
			t.AddRow(rep.Preset, c.Name, verdict, c.Detail)
		}
	}
	return t, failed
}

// churnExpectations folds the spec's fault schedule into the membership
// outcome it promises: the number of epoch transitions (one per churn
// fault, batch scale included) and the final active fleet counts.
func churnExpectations(sp scenario.Spec) (transitions, workers, servers int) {
	workers = sp.NW
	switch sp.Topology {
	case scenario.TopoDecentralized:
		servers = sp.NW
	default:
		servers = sp.NPS
		if servers == 0 {
			servers = 1 // single-server topologies materialize one replica
		}
	}
	for _, flt := range sp.Faults {
		n := 0
		switch flt.Kind {
		case scenario.FaultJoin:
			n = 1
		case scenario.FaultLeave:
			n = -1
		case scenario.FaultScale:
			n = flt.Delta
		default:
			continue
		}
		transitions++
		if flt.Target == "server" {
			servers += n
		} else {
			workers += n
		}
	}
	return transitions, workers, servers
}

// checkMembership: every churn fault cost exactly one epoch transition
// (batch scale is one epoch, crash recovery is none), and the final active
// fleet matches the schedule's net delta — no ghost members, no lost slots.
func checkMembership(sp scenario.Spec, run *runOutcome) Check {
	transitions, workers, servers := churnExpectations(sp)
	ok := run.epoch == uint64(transitions) &&
		run.workers == workers && run.servers == servers
	return Check{
		Name:   "membership",
		Passed: ok,
		Detail: fmt.Sprintf("epoch %d after %d churn faults; fleet %dw/%ds (schedule promises %dw/%ds)",
			run.epoch, transitions, run.workers, run.servers, workers, servers),
	}
}

// checkJoinConverges: the replica that bootstrapped from a checkpoint ends
// the run within JoinSpreadBound of every other live honest replica — the
// checkpoint plus the model contraction absorbed it into the fleet.
func checkJoinConverges(run *runOutcome) Check {
	if run.servers < 2 {
		return Check{Name: "join-converges", Passed: false,
			Detail: fmt.Sprintf("need >= 2 live replicas to measure spread; got %d", run.servers)}
	}
	if math.IsNaN(run.spread) || math.IsInf(run.spread, 0) || run.spread > JoinSpreadBound {
		return Check{Name: "join-converges", Passed: false,
			Detail: fmt.Sprintf("honest replica spread %.3g exceeds %.3g across %d replicas", run.spread, JoinSpreadBound, run.servers)}
	}
	return Check{
		Name:   "join-converges",
		Passed: true,
		Detail: fmt.Sprintf("max honest replica spread %.3g <= %.3g across %d replicas", run.spread, JoinSpreadBound, run.servers),
	}
}

// checkShardIntegrity: the sharded protocol's all-or-abort contract held
// across the fault program — every scheduled iteration either committed a
// full-coordinate reassembled model (counted in ShardRounds and Updates) or
// aborted before any write (ShardAborts), with nothing in between, and the
// surviving model is finite (a torn reassembly would have tripped the
// runner's NaN sweep or left a poisoned norm).
func checkShardIntegrity(sp scenario.Spec, run *runOutcome) Check {
	rounds, aborts, failovers, updates := 0, 0, 0, 0
	for _, seg := range run.segments {
		rounds += seg.Result.ShardRounds
		aborts += seg.Result.ShardAborts
		failovers += seg.Result.ShardFailovers
		updates += seg.Result.Updates
	}
	switch {
	case rounds+aborts != sp.Iterations:
		return Check{Name: "shard-integrity", Passed: false,
			Detail: fmt.Sprintf("%d committed + %d aborted rounds != %d scheduled iterations (a round vanished)",
				rounds, aborts, sp.Iterations)}
	case updates != rounds:
		return Check{Name: "shard-integrity", Passed: false,
			Detail: fmt.Sprintf("%d model updates != %d committed rounds (a write escaped the all-or-abort gate)",
				updates, rounds)}
	case math.IsNaN(run.modelNorm) || math.IsInf(run.modelNorm, 0):
		return Check{Name: "shard-integrity", Passed: false,
			Detail: fmt.Sprintf("surviving model norm %v is not finite (torn reassembly)", run.modelNorm)}
	}
	return Check{
		Name:   "shard-integrity",
		Passed: true,
		Detail: fmt.Sprintf("%d committed + %d aborted = %d rounds, %d failovers, no torn writes (norm %.3g)",
			rounds, aborts, sp.Iterations, failovers, run.modelNorm),
	}
}

// checkCorruptionRejected: the link program provably mangled frames, and the
// RPC layer provably rejected checksum-failing payloads — no silent
// poisoning path exists between the two.
func checkCorruptionRejected(run *runOutcome, rejects uint64) Check {
	if run.corrupted == 0 {
		return Check{Name: "corruption-rejected", Passed: false,
			Detail: "the corrupt-link program mangled no frames (fault not injected?)"}
	}
	if rejects == 0 {
		return Check{Name: "corruption-rejected", Passed: false,
			Detail: fmt.Sprintf("%d frames corrupted but zero checksum rejections recorded", run.corrupted)}
	}
	return Check{
		Name:   "corruption-rejected",
		Passed: true,
		Detail: fmt.Sprintf("%d frames corrupted in flight, %d checksum rejections at the RPC layer", run.corrupted, rejects),
	}
}
