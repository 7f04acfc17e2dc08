package chaos

import (
	"strings"
	"testing"

	"garfield/internal/scenario"
)

// TestChaosInvariantsHoldOnEveryPreset is the acceptance suite of the chaos
// engine: every preset's machine-checked resilience properties must hold —
// safety (bounded honest-model drift under <= f/fs adversaries, with the
// plain-averaging contrast diverging), liveness (post-heal throughput
// recovery), determinism (bit-identical metrics CSV at a fixed seed) and
// corruption rejection (checksums catch every mangled payload).
func TestChaosInvariantsHoldOnEveryPreset(t *testing.T) {
	for _, preset := range Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			rep, err := Run(preset, Options{Quick: testing.Short()})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.Passed {
					t.Errorf("invariant %s failed: %s", c.Name, c.Detail)
				} else {
					t.Logf("invariant %s: %s", c.Name, c.Detail)
				}
			}
		})
	}
}

// TestEquivocationContrastDiverges re-asserts the safety invariant's two
// halves separately, so a regression points at the right half: the robust
// (median-contraction) run stays bounded AND the plain-averaging run under
// the same equivocating replica drifts past the contrast ratio.
func TestEquivocationContrastDiverges(t *testing.T) {
	sp, err := scenario.ByName("chaos-equivocate")
	if err != nil {
		t.Fatal(err)
	}
	sp = shrink(sp, 3)
	robust, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if robust.modelNorm > SafetyNormBound {
		t.Fatalf("median contraction drifted to %.3g under equivocation", robust.modelNorm)
	}
	contrast := sp
	contrast.ModelRule = "average"
	poisoned, err := execute(contrast)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.modelNorm < ContrastRatio*robust.modelNorm {
		t.Fatalf("averaging contraction norm %.3g vs robust %.3g: the equivocator should dominate the average",
			poisoned.modelNorm, robust.modelNorm)
	}
}

// TestDeterminismCSVBitIdentical locks the determinism property directly on
// the CSV artifact (the acceptance criterion's wording), plus its failure
// mode: different seeds must produce different curves, proving the
// comparison is not vacuous.
func TestDeterminismCSVBitIdentical(t *testing.T) {
	sp, err := scenario.ByName("chaos-equivocate")
	if err != nil {
		t.Fatal(err)
	}
	sp = shrink(sp, 3)
	a, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a.metricsCSV() != b.metricsCSV() {
		t.Fatalf("same seed, different metrics CSV:\n%s\nvs\n%s", a.metricsCSV(), b.metricsCSV())
	}
	sp.Seed = sp.Seed + 1
	sp.Dataset.Seed = sp.Dataset.Seed + 1
	c, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a.metricsCSV() == c.metricsCSV() {
		t.Fatal("different seeds produced identical metrics CSV; the determinism check is vacuous")
	}
}

// TestLivenessRecoversThroughPartitionHeal measures the liveness property's
// three segments explicitly: training continues during the partition (the
// q = n - f quorum absorbs the cut-off workers) and every round after the
// heal commits.
func TestLivenessRecoversThroughPartitionHeal(t *testing.T) {
	sp, err := scenario.ByName("chaos-partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sp = shrink(sp, 3)
	}
	run, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.segments) != 3 {
		t.Fatalf("want 3 segments (pre, partitioned, healed), got %d", len(run.segments))
	}
	mid := run.segments[1]
	if mid.Result.Updates != mid.End-mid.Start {
		t.Fatalf("partitioned segment lost rounds: %d updates over [%d, %d)",
			mid.Result.Updates, mid.Start, mid.End)
	}
	if c := checkRecovered("liveness", "heal", 3, run); !c.Passed {
		t.Fatalf("healed segment did not commit every round: %s", c.Detail)
	}
}

// TestJoinBootstrapConvergesUnderAttack asserts the elastic-membership
// acceptance story piece by piece: a replica bootstraps from the primary's
// checkpoint at the boundary where a partition heals, with two
// little-is-enough workers attacking throughout — no round is lost, the
// transition costs exactly one epoch, and the joiner ends within the spread
// bound of the honest fleet's model.
func TestJoinBootstrapConvergesUnderAttack(t *testing.T) {
	sp, err := scenario.ByName("chaos-join-bootstrap")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sp = shrink(sp, 3)
	}
	run, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if run.updates() != sp.Iterations {
		t.Fatalf("updates = %d, want %d: the partition and the join must not cost rounds", run.updates(), sp.Iterations)
	}
	if run.epoch != 1 || run.servers != sp.NPS+1 {
		t.Fatalf("epoch %d, %d replicas; want epoch 1 and %d replicas", run.epoch, run.servers, sp.NPS+1)
	}
	if run.spread > JoinSpreadBound {
		t.Fatalf("bootstrapped replica ended %v from the fleet, want <= %v", run.spread, JoinSpreadBound)
	}
}

// TestChurnSweepBitIdenticalPerSeed pins the determinism half of the churn
// acceptance criterion directly: two deterministic runs through the full
// join/leave/scale schedule at the same seed produce bit-identical metrics
// CSV, the same final model norm, and the same epoch trajectory.
func TestChurnSweepBitIdenticalPerSeed(t *testing.T) {
	sp, err := scenario.ByName("chaos-churn-attack")
	if err != nil {
		t.Fatal(err)
	}
	sp = shrink(sp, 3)
	a, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a.metricsCSV() != b.metricsCSV() {
		t.Fatalf("same seed, different metrics CSV through churn:\n%s\nvs\n%s", a.metricsCSV(), b.metricsCSV())
	}
	if a.modelNorm != b.modelNorm || a.epoch != b.epoch || a.workers != b.workers {
		t.Fatalf("churn replay diverged: norm %v/%v epoch %d/%d workers %d/%d",
			a.modelNorm, b.modelNorm, a.epoch, b.epoch, a.workers, b.workers)
	}
}

// TestShardOwnerCrashRecoveryIntegrity asserts the sharded no-torn-writes
// acceptance story piece by piece: a shard-owning replica crashes mid-run and
// recovers later; its shards fail over (counted) without losing a round, every
// committed round is a full-coordinate write, and the recovered replica's
// segment aborts nothing.
func TestShardOwnerCrashRecoveryIntegrity(t *testing.T) {
	sp, err := scenario.ByName("chaos-shard-crash")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sp = shrink(sp, 3)
	}
	run, err := execute(sp)
	if err != nil {
		t.Fatal(err)
	}
	if run.updates() != sp.Iterations {
		t.Fatalf("updates = %d, want %d: failover must not cost rounds", run.updates(), sp.Iterations)
	}
	if len(run.segments) != 3 {
		t.Fatalf("want 3 segments (healthy, crashed, recovered), got %d", len(run.segments))
	}
	crashed := run.segments[1].Result
	if crashed.ShardFailovers == 0 {
		t.Fatal("crashed-owner segment counted no shard failovers")
	}
	recovered := run.segments[2].Result
	if recovered.ShardAborts != 0 || recovered.ShardRounds != recovered.Updates {
		t.Fatalf("post-recovery segment: rounds=%d aborts=%d updates=%d",
			recovered.ShardRounds, recovered.ShardAborts, recovered.Updates)
	}
	if c := checkShardIntegrity(sp, run); !c.Passed {
		t.Fatalf("shard-integrity: %s", c.Detail)
	}
}

// TestRunRejectsUnknownPreset pins the harness error path.
func TestRunRejectsUnknownPreset(t *testing.T) {
	if _, err := Run("chaos-imaginary", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown chaos preset") {
		t.Fatalf("err = %v", err)
	}
}

// TestShrinkKeepsSchedulesValid: quick mode must never produce a spec whose
// fault schedule fails validation.
func TestShrinkKeepsSchedulesValid(t *testing.T) {
	for _, preset := range Presets() {
		sp, err := scenario.ByName(preset)
		if err != nil {
			t.Fatal(err)
		}
		small := shrink(sp, 3)
		if err := small.Validate(); err != nil {
			t.Fatalf("%s shrunk spec invalid: %v", preset, err)
		}
		tiny := shrink(sp, 1000)
		if err := tiny.Validate(); err != nil {
			t.Fatalf("%s degenerate shrink invalid: %v", preset, err)
		}
	}
}
