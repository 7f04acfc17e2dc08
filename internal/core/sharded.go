package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/shard"
	"garfield/internal/tensor"
)

// This file is the sharded-aggregation topology: the distributed form of
// internal/shard, breaking the O(n²·d) single-box aggregation wall by
// partitioning the work across the server replicas.
//
// Coordinate-wise rules (average, median, trimmedmean, phocas) shard the
// coordinate space: shard k's owner pulls only the [lo_k, hi_k) slice of
// every worker's gradient (ranged pulls — the wire ships d/S coordinates per
// worker per owner instead of d), aggregates the slices, and publishes the
// part. Selection rules (krum, multikrum, mda, bulyan) shard the worker
// space hierarchically: shard k's owner pulls full gradients from group k's
// workers only, runs the rule locally, and publishes the group winner; the
// root round over the winners runs at every replica during reassembly. The
// coordinate-wise composition is bit-identical to the flat rule; the
// hierarchical one is bounded by the drift envelopes documented and tested
// in internal/shard.
//
// Each round is two phases with an all-or-abort commit:
//
//	Phase A — every shard's owner pulls, aggregates, and publishes its part
//	          (Server.SetShardPart, stamped with the round).
//	Phase B — every live replica collects all S parts (its own locally,
//	          the rest via KindGetShardPart pulls), assembles the full
//	          update — concatenation for coordinate-wise rules, the root
//	          selection round for hierarchical ones — and only after every
//	          live replica holds a complete, width-checked assembly does
//	          anyone apply it. A failure anywhere (quorum miss, owner
//	          unreachable, torn part) aborts the round before the first
//	          model write: the model either takes the full-coordinate
//	          update or none of it, never a partial-coordinate write.
//
// The server tier is crash-only (FPS must be 0): shard owners are trusted
// to aggregate honestly, exactly as the paper's SSMW server is — Byzantine
// workers remain tolerated through the GARs. A crashed owner's shards fail
// over to the next live replica in rotation (ShardFailovers counts the
// reassignments); a replica recovered mid-run catches up by adopting the
// newest live peer's model before its next round (Server.AdoptState).
type shardedStepper struct {
	round
	stages [][]phase

	coord bool       // coordinate-wise rule: exact coordinate sharding
	plan  shard.Plan // coordinate partition (coord mode only)

	// Per-round plan, set at the top of Step: the roster, each shard's owner
	// and aggregator, the worker groups (hierarchical), and the fleet's
	// newest model step with the address of a replica holding it.
	ro        Roster
	live      []int
	owners    []int
	aggs      []*Aggregator
	groups    shard.Plan
	maxStep   uint32
	donorAddr string

	// scratch holds each replica's assembly buffer; winners holds each
	// replica's pulled group winners (hierarchical). Keyed by replica slot,
	// reused across rounds, touched only by that replica's phases.
	scratch map[int]tensor.Vector
	winners map[int][]tensor.Vector
}

// errShardAbort marks a round that must be abandoned, not failed: a quorum
// miss, an unreachable owner or donor, a torn part. Step turns it into a
// counted abort; anything else a phase returns is fatal to the run.
var errShardAbort = errors.New("sharded round aborted")

func abort(err error) error { return fmt.Errorf("%w: %w", errShardAbort, err) }

// RunSharded trains with the sharded-aggregation topology. Requirements:
// Shards >= 1 (and, for coordinate-wise rules, at most the model dimension;
// for selection rules, a worker grouping satisfying the rule's floors), and
// FPS == 0 — reassembly trusts shard owners, so the server tier is
// crash-only while Byzantine workers stay covered by the GARs.
func (c *Cluster) RunSharded(opt RunOptions) (*Result, error) {
	cfg := c.cfg
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: sharded topology needs shards >= 1, got %d", ErrConfig, cfg.Shards)
	}
	if cfg.FPS != 0 {
		return nil, fmt.Errorf("%w: sharded reassembly trusts shard owners: fps must be 0 (crash faults only on the server tier), got %d",
			ErrConfig, cfg.FPS)
	}
	var plan shard.Plan
	if gar.CoordinateWise(cfg.Rule) {
		p, err := shard.NewPlan(cfg.Arch.Dim(), cfg.Shards)
		if err != nil {
			return nil, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
		plan = p
	} else if _, err := shard.NewHierarchical(cfg.Rule, cfg.NW, cfg.FW, cfg.Shards); err != nil {
		// Fast-fail the hierarchical shape: group floors and the root round's
		// f=0 floor, validated exactly as the local aggregators will be built.
		return nil, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
	}
	st := c.stepper("sharded", func() Stepper { return newShardedStepper(c, plan) })
	return c.driveSteps(newResult("sharded"), st, opt)
}

func newShardedStepper(c *Cluster, plan shard.Plan) *shardedStepper {
	cfg := c.cfg
	st := &shardedStepper{
		round:   round{c: c, topology: "sharded"},
		coord:   gar.CoordinateWise(cfg.Rule),
		plan:    plan,
		owners:  make([]int, cfg.Shards),
		aggs:    make([]*Aggregator, cfg.Shards),
		scratch: make(map[int]tensor.Vector), winners: make(map[int][]tensor.Vector),
	}
	// Nothing is applied until every assembly is complete and width-checked:
	// the stage boundary before update is the all-or-abort barrier that rules
	// out torn (partial-coordinate) model writes.
	st.stages = [][]phase{
		{{"catch-up", st.catchUp}, {"shard publish", st.publish}},
		{{"assemble", st.assemble}},
		{{"update", st.update}},
	}
	return st
}

// ownerOf resolves shard k's owner: the preferred replica is roster slot
// k mod nps, and a crashed preference fails over to the next live replica in
// rotation. Deterministic in (roster, crash set), so every replica derives
// the same ownership map without coordination. st.live must be non-empty.
func (st *shardedStepper) ownerOf(k int) (owner int, failedOver bool) {
	n := len(st.ro.Servers)
	for off := 0; ; off++ {
		if r := st.ro.Servers[(k+off)%n]; slices.Contains(st.live, r) {
			return r, off > 0
		}
	}
}

// Step plans one sharded round — live replicas, ownership, per-shard and root
// aggregators, the catch-up target — and runs it. applied reports whether
// the round's update was written (false: aborted cleanly, no replica wrote
// its model); a non-nil error is fatal to the run (configuration or rule
// failures, not transient network faults).
func (st *shardedStepper) Step(i int) (bool, error) {
	c, cfg := st.c, st.c.cfg
	st.ro = c.Roster()
	ro := st.ro
	st.live = c.liveServers(ro, st.live[:0])
	if len(st.live) == 0 {
		return false, fmt.Errorf("%w: sharded iteration %d: all %d replicas crashed or departed", ErrConfig, i, len(ro.Servers))
	}
	st.drive(st.live)
	st.qw = ro.NW()
	if !cfg.SyncQuorum && st.coord {
		st.qw = ro.NW() - ro.FW
	}

	// A replica recovered after missing committed rounds lags the fleet; its
	// catch-up phase adopts the model of the first replica at the newest step.
	st.maxStep = 0
	for k, r := range st.replicas {
		if step := r.s.Step(); k == 0 || step > st.maxStep {
			st.maxStep, st.donorAddr = step, c.ServerAddr(r.idx)
		}
	}

	var err error
	rootF := 0
	if !st.coord {
		if st.groups, err = shard.NewGroups(ro.NW(), cfg.Shards); err != nil {
			return false, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
		if rootF, err = shard.RootF(cfg.Rule, cfg.Shards); err != nil {
			return false, fmt.Errorf("%w: sharded: %v", ErrConfig, err)
		}
	}
	for k := range st.owners {
		var failedOver bool
		if st.owners[k], failedOver = st.ownerOf(k); failedOver {
			st.res.ShardFailovers++
		}
		n := st.qw
		if !st.coord {
			glo, ghi := st.groups.Range(k)
			n = ghi - glo
		}
		if st.aggs[k], err = c.partAggs.get(k, cfg.Rule, n, ro.FW); err != nil {
			return false, fmt.Errorf("core: sharded: %w", err)
		}
	}
	d := cfg.Arch.Dim()
	for k := range st.replicas {
		r := &st.replicas[k]
		st.scratch[r.idx] = tensor.Resize(st.scratch[r.idx], d)
		if !st.coord {
			if r.modelAgg, err = c.modelAggs.get(r.idx, cfg.Rule, cfg.Shards, rootF); err != nil {
				return false, fmt.Errorf("core: sharded: %w", err)
			}
			if st.winners[r.idx] == nil {
				st.winners[r.idx] = make([]tensor.Vector, 0, cfg.Shards)
			}
		}
	}

	switch err = st.run(i, st.stages); {
	case err == nil:
		st.res.ShardRounds++
		return true, nil
	case errors.Is(err, errShardAbort):
		st.res.ShardAborts++
		return false, nil
	}
	return false, err
}

// catchUp brings a lagging replica onto the fleet's newest model: it pulls
// the donor's model through its own client and adopts it wholesale. An
// unreachable donor aborts the round; the next one retries.
func (st *shardedStepper) catchUp(k int) error {
	s := st.replicas[k].s
	if s.Step() == st.maxStep {
		return nil
	}
	vec, err := s.client.Call(st.ctx, st.donorAddr, rpc.Request{Kind: rpc.KindGetModel, Step: st.maxStep})
	if err != nil {
		return abort(err)
	}
	return s.AdoptState(vec, st.maxStep)
}

// publish is Phase A at replica k: for every shard it owns, pull, aggregate
// and publish the part. A coordinate-wise rule pulls the [lo, hi) slice of a
// worker quorum and aggregates it with the flat rule restricted to those
// coordinates — exactly the flat aggregation's arithmetic on that slice,
// which is what makes reassembly bit-identical. A selection rule pulls full
// gradients from the shard's worker group only and runs the rule locally,
// tolerating up to FW Byzantine members (the declared-Byzantine workers are
// the roster's last FW, so whatever groups they land in stay within the
// per-group budget the drift bounds assume).
func (st *shardedStepper) publish(k int) error {
	r := &st.replicas[k]
	for j, owner := range st.owners {
		if owner != r.idx {
			continue
		}
		var p pullReq
		if st.coord {
			lo, hi := st.plan.Range(j)
			p = r.s.gradientsRangeReq(st.iter, st.qw, uint16(j), lo, hi)
		} else {
			glo, ghi := st.groups.Range(j)
			p = r.s.gradientsFromReq(st.iter, st.ro.WorkerAddrs[glo:ghi], ghi-glo)
		}
		part, err := r.s.pullAggregate(st.ctx, p, st.aggs[j], st.c.clock, st.observe(k))
		if errors.Is(err, rpc.ErrQuorum) {
			return abort(err) // no part published
		}
		if err != nil {
			return err // rule failure on a full quorum is a bug, not a fault
		}
		r.s.SetShardPart(uint32(st.iter), uint16(j), part)
	}
	return nil
}

// assemble is Phase B at replica k: collect all S parts and build the full
// update in the replica's scratch buffer, left in replica.vec for the update
// stage. Coordinate parts are laid side by side: the buffer is pre-filled
// with NaN and every part's width is checked against its shard range before
// the copy, so an incomplete or torn reassembly can never masquerade as a
// full update — the final NaN sweep is the tripwire (shard ranges tile
// [0, d), so a fully collected round leaves no NaN behind). Group winners go
// through the root selection round instead — every replica derives the
// identical root output from the identical winner set, which is what keeps
// the replicas' models in lockstep without a model-exchange phase — and the
// output lands in scratch because the root aggregator's buffer is reused.
func (st *shardedStepper) assemble(k int) error {
	r := &st.replicas[k]
	buf := st.scratch[r.idx]
	d := len(buf)
	ws := st.winners[r.idx][:0]
	if st.coord {
		nan := math.NaN()
		for j := range buf {
			buf[j] = nan
		}
	}
	for j, owner := range st.owners {
		lo, hi := 0, d
		if st.coord {
			lo, hi = st.plan.Range(j)
		}
		part, err := st.collectPart(k, owner, uint16(j), lo, hi)
		if err != nil {
			return err
		}
		if len(part) != hi-lo {
			return abort(fmt.Errorf("torn part %d: width %d, want %d", j, len(part), hi-lo))
		}
		if st.coord {
			copy(buf[lo:hi], part)
		} else {
			ws = append(ws, part)
		}
	}
	if st.coord {
		for j := range buf {
			if buf[j] != buf[j] {
				return fmt.Errorf("reassembly left coordinate %d unwritten", j)
			}
		}
	} else {
		t0 := st.c.clock.Now()
		out, err := r.modelAgg.Aggregate(ws)
		st.observe(k).AddAgg(st.c.clock.Now().Sub(t0))
		if err != nil {
			return err
		}
		copy(buf, out)
	}
	r.vec = buf
	return nil
}

// collectPart fetches one part at replica k: a local store read when it owns
// the shard, a KindGetShardPart pull from the owner otherwise. An unavailable
// part (owner crashed mid-round, pull failed, stale step) aborts the round.
func (st *shardedStepper) collectPart(k, owner int, shard uint16, lo, hi int) (tensor.Vector, error) {
	r := &st.replicas[k]
	if owner == r.idx {
		part, ok := r.s.shardPartLocal(uint32(st.iter), shard)
		if !ok {
			return nil, abort(fmt.Errorf("own part %d missing", shard))
		}
		return part, nil
	}
	t0 := st.c.clock.Now()
	part, err := r.s.GetShardPart(st.ctx, st.c.ServerAddr(owner), uint32(st.iter), shard, lo, hi)
	st.observe(k).AddComm(st.c.clock.Now().Sub(t0))
	if err != nil {
		return nil, abort(err)
	}
	return part, nil
}
