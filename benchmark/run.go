package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"garfield/internal/core"
	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

const (
	// setups is how many times an untraced run builds its deployment; it
	// reports the median set-up and measures a share of -seconds on each.
	setups = 3
	// warmupRounds are driven, untimed, at the end of every set-up: the
	// first rounds size the reply arenas and page in the heap.
	warmupRounds      = 5
	quickWarmupRounds = 2
	// defaultMinAccuracy is the final accuracy a run must reach under the
	// live attack to count as correct.
	defaultMinAccuracy = 0.9
)

// options are one run's settings.
type options struct {
	w           workload
	seed        uint64
	seconds     float64
	quick       bool
	traceOut    string
	minAccuracy float64
	// ref times the host around every set-up and segment (reference.go).
	ref *reference
}

func (o options) warmup() int {
	if o.quick {
		return quickWarmupRounds
	}
	return warmupRounds
}

func (o options) segRounds() int {
	if o.quick {
		return o.w.quickRounds
	}
	return o.w.segRounds
}

// enough reports whether a measuring loop given seconds may stop: under
// -quick after two segments; otherwise once another segment would overshoot
// by more than the loop undershoots now, and never before the first.
func (o options) enough(start time.Time, st *runStats, seconds float64) bool {
	n := len(st.segMs)
	if o.quick {
		return n >= 2
	}
	if n == 0 {
		return false
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(n)/2 >= seconds
}

// deployment is one built and warmed-up cluster of a workload.
type deployment struct {
	w       workload
	in      *inputs
	cluster *core.Cluster
	tr      *tracer // nil: untraced
	// refMs is the latest reading of the reference kernel, taken when the
	// set-up or the last segment ended.
	refMs float64
}

// deploy generates the seed's inputs, builds the cluster and drives the
// warm-up rounds — everything setup_s covers. An untraced in-memory cluster
// uses the production wiring (core.NewCluster, which garfield.NewCluster
// forwards to); TCP and traced clusters use the benchmark's wiring.
func deploy(w workload, seed uint64, traced bool, warmup int) (*deployment, error) {
	in, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, in: in}
	arch := in.arch
	if traced {
		d.tr = newTracer()
		arch = tracedModel{Model: in.arch, tr: d.tr}
	}
	cfg, err := w.config(in, arch, seed)
	if err != nil {
		return nil, err
	}
	if traced || w.tcp {
		d.cluster, err = core.NewClusterWith(cfg, newWiring(w.tcp, d.tr))
	} else {
		d.cluster, err = core.NewCluster(cfg)
	}
	if err != nil {
		return nil, err
	}
	if _, err := w.run(d.cluster, warmup); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// close shuts the cluster down; a second call is a no-op.
func (d *deployment) close() {
	if d.cluster != nil {
		d.cluster.Close()
		d.cluster = nil
	}
}

// runStats accumulates a deployment's sample segments.
type runStats struct {
	segMs             []float64 // wall ms per round as measured, one per segment
	slow              []float64 // host slowdown during each segment
	aggMs             []float64 // Result.Breakdown aggregation mean, one per segment
	attempted, failed int
	updates           int
	wall              time.Duration
	normS             float64 // wall seconds at the nominal host speed: sum of segment wall / slowdown
	mallocs, bytes    uint64  // runtime.MemStats deltas over the segments
	wire              rpc.WireStats
	shardRounds       int
	shardAborts       int
}

// merge folds another deployment's segments into st.
func (st *runStats) merge(o *runStats) {
	st.segMs = append(st.segMs, o.segMs...)
	st.slow = append(st.slow, o.slow...)
	st.aggMs = append(st.aggMs, o.aggMs...)
	st.attempted += o.attempted
	st.failed += o.failed
	st.updates += o.updates
	st.wall += o.wall
	st.normS += o.normS
	st.mallocs += o.mallocs
	st.bytes += o.bytes
	st.wire = st.wire.Add(o.wire)
	st.shardRounds += o.shardRounds
	st.shardAborts += o.shardAborts
}

// normMs returns each segment's ms per round at the nominal host speed.
func (st *runStats) normMs() []float64 {
	out := make([]float64, len(st.segMs))
	for i, ms := range st.segMs {
		out[i] = ms / st.slow[i]
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// segment drives one Run* call and records it. A round fails when the call
// errors or the round applied no update (a sharded abort included).
func (d *deployment) segment(st *runStats, ref *reference, rounds int) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := d.w.run(d.cluster, rounds)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if d.tr != nil {
		d.tr.endSegment()
	}
	before := d.refMs
	d.refMs = ref.read()
	st.attempted += rounds
	if err != nil {
		st.failed += rounds
		return err
	}
	st.wall += elapsed
	st.segMs = append(st.segMs, msOf(elapsed)/float64(rounds))
	slow := slowdown(before, d.refMs)
	st.slow = append(st.slow, slow)
	st.normS += elapsed.Seconds() / slow
	st.mallocs += m1.Mallocs - m0.Mallocs
	st.bytes += m1.TotalAlloc - m0.TotalAlloc
	st.updates += res.Updates
	st.failed += rounds - res.Updates
	st.wire = st.wire.Add(res.Wire)
	_, _, agg := res.Breakdown.Means()
	st.aggMs = append(st.aggMs, msOf(agg))
	st.shardRounds += res.ShardRounds
	st.shardAborts += res.ShardAborts
	return nil
}

// verify runs the correctness checks on a measured deployment and returns
// the final accuracy and every check that failed.
func (d *deployment) verify(st *runStats, minAccuracy float64) (float64, []string) {
	var bad []string
	acc, err := d.cluster.Server(0).ComputeAccuracy(d.in.held)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("accuracy: %v", err))
	case !(acc >= minAccuracy):
		bad = append(bad, fmt.Sprintf("final accuracy %.4f < %.2f under attack", acc, minAccuracy))
	}
	for i := 0; i < d.cluster.Servers(); i++ {
		if !d.cluster.Server(i).Params().IsFinite() {
			bad = append(bad, fmt.Sprintf("server-%d has non-finite parameters", i))
		}
	}
	if st.updates != st.attempted {
		bad = append(bad, fmt.Sprintf("%d updates in %d rounds", st.updates, st.attempted))
	}
	if d.w.topology == topoSharded && (st.shardRounds != st.attempted || st.shardAborts != 0) {
		bad = append(bad, fmt.Sprintf("sharded: %d committed, %d aborted of %d rounds",
			st.shardRounds, st.shardAborts, st.attempted))
	}
	ratio := st.wire.ReplyCompressionRatio()
	if d.w.codec == "int8" {
		if ratio < 7 {
			bad = append(bad, fmt.Sprintf("int8 reply compression ratio %.3f < 7", ratio))
		}
	} else if math.Abs(ratio-1) > 1e-12 {
		bad = append(bad, fmt.Sprintf("uncompressed reply compression ratio %.6f != 1", ratio))
	}
	if st.wire.Retries != 0 {
		bad = append(bad, fmt.Sprintf("%d rpc retries on a fault-free run", st.wire.Retries))
	}
	return acc, bad
}

// outcome is what a run hands to the printer.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	problems          []string
	notes             []string
}

// phase is one deployment's life: set up, measured for its share of
// -seconds, verified, closed. Only one deployment is alive at a time — two
// 1 GB clusters in one heap double the GC's goal, and a heap still growing
// towards its goal pays page faults on every allocation.
type phase struct {
	st        runStats
	setupS    float64 // as measured
	setupSlow float64 // host slowdown during the set-up
	heapSys   uint64  // after the measured segments
	accuracy  float64
	problems  []string
	spans     []Span // traced phases only
	in        *inputs
}

func runPhase(o options, traced bool, seconds float64) (*phase, error) {
	before := o.ref.read()
	t0 := time.Now()
	d, err := deploy(o.w, o.seed, traced, o.warmup())
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	ph := &phase{setupS: time.Since(t0).Seconds(), in: d.in}
	d.refMs = o.ref.read()
	ph.setupSlow = slowdown(before, d.refMs)
	if traced {
		d.tr.start()
	}

	// The share of -seconds covers the reference readings too, so a run
	// lasts what it is given.
	start := time.Now()
	var runErr error
	for !o.enough(start, &ph.st, seconds) && runErr == nil {
		runErr = d.segment(&ph.st, o.ref, o.segRounds())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapSys = ms.HeapSys

	if runErr != nil {
		ph.problems = append(ph.problems, runErr.Error())
	} else {
		ph.accuracy, ph.problems = d.verify(&ph.st, o.minAccuracy)
	}
	if traced {
		ph.spans = d.tr.snapshot()
	}
	d.close()
	runtime.GC() // the next phase starts from a collected heap
	return ph, nil
}

// runEndToEnd is the untraced run: production wiring, tracing off, the
// numbers a user of the system would see. It sets up several times and
// measures an equal share of -seconds on each deployment, so that set-up
// time is a median and no single heap layout decides the round time. The
// three times it reports are at the nominal host speed (reference.go); the
// notes give them as measured.
func runEndToEnd(o options) (*outcome, error) {
	n := setups
	if o.quick {
		n = 1
	}
	var (
		st                      runStats
		setupS, setupSlow, norm []float64 // set-ups as measured, their slowdown, and the quotient
		acc                     []float64
	)
	out := &outcome{}
	for i := 0; i < n && len(out.problems) == 0; i++ {
		ph, err := runPhase(o, false, o.seconds/float64(n))
		if err != nil {
			return nil, err
		}
		st.merge(&ph.st)
		setupS, setupSlow = append(setupS, ph.setupS), append(setupSlow, ph.setupSlow)
		norm, acc = append(norm, ph.setupS/ph.setupSlow), append(acc, ph.accuracy)
		out.problems = append(out.problems, ph.problems...)
	}
	out.attempted, out.failed = st.attempted, st.failed
	if len(st.segMs) == 0 {
		return out, nil
	}
	rounds := float64(st.attempted)
	out.metrics = map[string]float64{
		"setup_s":              median(norm),
		"updates_per_s":        float64(st.updates) / st.normS,
		"round_ms_p50":         median(st.normMs()),
		"wire_bytes_per_round": float64(st.wire.BytesIn+st.wire.BytesOut) / rounds,
		"allocs_per_round":     float64(st.mallocs) / rounds,
		"alloc_kb_per_round":   float64(st.bytes) / 1024 / rounds,
		"final_accuracy":       median(acc),
	}
	out.notes = append(out.notes,
		fmt.Sprintf("%d rounds in %d segments of %d over %d set-ups; round_ms_p50 is the median of the %d segment means",
			st.attempted, len(st.segMs), o.segRounds(), len(setupS), len(st.segMs)),
		fmt.Sprintf("times below are at the nominal host speed; as measured: setup_s %.4f, updates_per_s %.4f, round_ms_p50 %.4f",
			median(setupS), float64(st.updates)/st.wall.Seconds(), median(st.segMs)),
		fmt.Sprintf("host slowdown: median %.3f over the segments", median(st.slow)),
		fmt.Sprintf("segment ms/round as measured: %.2f", st.segMs),
		fmt.Sprintf("segment host slowdown: %.3f", st.slow),
		fmt.Sprintf("set-ups s as measured: %.2f, host slowdown %.3f", setupS, setupSlow))
	return out, nil
}

// startGarPool makes internal/gar start its process-wide worker pool, which
// it does lazily on the first aggregation big enough to split, so that the
// pool's goroutines are not counted as leaked by a cluster.
func startGarPool() error {
	rule, err := gar.New(gar.NameMedian, 3, 0)
	if err != nil {
		return err
	}
	vs := []tensor.Vector{tensor.New(1 << 18), tensor.New(1 << 18), tensor.New(1 << 18)}
	_, err = rule.Aggregate(vs)
	return err
}

// settledGoroutines returns the goroutine count once it has stopped falling:
// goroutines a Close has already told to stop may take a moment to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// runPerLayer is the traced run: an untraced twin on the production wiring
// for a quarter of -seconds, the traced deployment on the benchmark's wiring
// for half, the twin again for the last quarter. The traced phase's spans and
// results give the per-layer numbers; the twin on both sides of it gives the
// tracing overhead with any steady drift of the machine cancelled; isolated
// probes follow.
func runPerLayer(o options) (*outcome, error) {
	if err := startGarPool(); err != nil {
		return nil, err
	}
	g0 := runtime.NumGoroutine()
	before, err := runPhase(o, false, o.seconds/4)
	if err != nil {
		return nil, err
	}
	leaked := settledGoroutines() - g0
	traced, err := runPhase(o, true, o.seconds/2)
	if err != nil {
		return nil, err
	}
	after, err := runPhase(o, false, o.seconds/4)
	if err != nil {
		return nil, err
	}
	twin := before.st
	twin.merge(&after.st)
	tst := &traced.st

	out := &outcome{attempted: twin.attempted + tst.attempted, failed: twin.failed + tst.failed}
	out.problems = append(append(out.problems, before.problems...), after.problems...)
	for _, p := range traced.problems {
		out.problems = append(out.problems, "traced: "+p)
	}
	if len(tst.segMs) == 0 || len(twin.segMs) == 0 {
		return out, nil
	}

	blocking := func(caller string) bool { return o.w.sequentialReplicas() || caller == "server-0" }
	m, meanRoundMs := analyze(traced.spans, blocking, o.w.nw)
	rounds := float64(tst.attempted)
	m["rpc.calls"] = float64(tst.wire.Calls) / rounds
	m["rpc.reply_bytes"] = float64(tst.wire.ReplyPayloadBytes) / rounds
	m["rpc.retries"] = float64(tst.wire.Retries) / rounds
	m["rpc.backoff_ms"] = float64(tst.wire.BackoffNanos) / 1e6 / rounds
	m["gar.aggregate_ms"] = mean(tst.aggMs)
	m["core.other_ms"] = meanRoundMs - m["rpc.pull_ms"] - m["gar.aggregate_ms"]
	m["core.tracing_overhead_pct"] = (median(tst.normMs())/median(twin.normMs()) - 1) * 100
	m["core.goroutines_leaked"] = float64(leaked)
	m["runtime.heap_sys_mb"] = float64(before.heapSys) / (1 << 20)

	debug.FreeOSMemory() // the clusters' heap goes back before the probes allocate their own
	probeBudget := time.Duration(0.2 * o.seconds * float64(time.Second))
	if err := probes(o, traced.in, probeBudget, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	out.metrics = m
	out.notes = append(out.notes,
		fmt.Sprintf("traced %d rounds in %d segments of %d, untraced twin %d rounds in %d before and %d after; %d spans",
			tst.attempted, len(tst.segMs), o.segRounds(), twin.attempted, len(before.st.segMs), len(after.st.segMs), len(traced.spans)),
		fmt.Sprintf("segment ms/round: twin before %.2f, traced %.2f, twin after %.2f", before.st.segMs, tst.segMs, after.st.segMs),
		fmt.Sprintf("set-ups s: %.2f %.2f %.2f", before.setupS, traced.setupS, after.setupS))
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, traceFile{Workload: o.w.name, Seed: o.seed, Spans: traced.spans}); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		out.notes = append(out.notes, "spans written to "+o.traceOut)
	}
	return out, nil
}
