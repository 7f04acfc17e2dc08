package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// Stepper is the per-round protocol state machine, decoupled from the run
// loop that drives it. Step(i) executes iteration i and Observed returns the
// replica accuracy is measured at after the step. One loop (driveSteps)
// serves both execution engines: the live wiring and the discrete-event
// simulator drive the same steppers.
type Stepper interface {
	// Step executes iteration i. applied reports whether the round wrote a
	// model update: true whenever err is nil, except for a sharded round
	// that aborted cleanly.
	Step(i int) (applied bool, err error)
	// Observed returns the replica the run's accuracy is measured at —
	// valid after a successful Step.
	Observed() *Server
	// start makes res the result the next Steps record into.
	start(res *Result)
}

// driveSteps is the engine-agnostic run loop shared by every lockstep
// protocol runner: one Step, one throughput tick and one accuracy check per
// iteration, all measured on the cluster's clock. Accuracy is recorded after
// applied and aborted rounds alike, so the curve keeps one point per
// schedule slot whatever the fault pattern — the bit-identical sweep
// contract needs a stable shape.
func (c *Cluster) driveSteps(res *Result, st Stepper, opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	st.start(res)
	start := c.clock.Now()
	wire0 := c.WireStats()
	for i := 0; i < opt.Iterations; i++ {
		applied, err := st.Step(i)
		if err != nil {
			return nil, err
		}
		res.Breakdown.EndIteration()
		if applied {
			res.Updates++
		}
		if err := c.recordAccuracy(res, st.Observed(), opt, i, start); err != nil {
			return nil, err
		}
	}
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// A round is an ordered list of phases run over the replicas a topology
// drives. A phase is one step of the paper's listings at one replica — pull
// gradients and aggregate, update_model, pull models and aggregate,
// write_model — and a stage is a run of consecutive phases with no
// cross-replica dependency: replica a may be anywhere inside a stage while
// replica b is anywhere else inside it, but nobody enters stage k+1 before
// everybody left stage k. Steppers bind their stage lists once, at
// construction; round.run is the only scheduler.
type phase struct {
	name string
	run  func(k int) error // k indexes round.replicas
}

// replica is the per-round state of one driven replica.
type replica struct {
	idx               int // stable replica slot (Cluster.Server index)
	s                 *Server
	gradAgg, modelAgg *Aggregator
	// vec carries a value from the phase that produced it to the phase that
	// consumes it: the aggregated gradient on its way to update, the
	// aggregated model on its way to write. It aliases an Aggregator's (or
	// the sharded stepper's) per-replica buffer, never shared state.
	vec tensor.Vector
}

// round is the state every lockstep stepper embeds: what is being run, the
// replicas of the current iteration and its quorums (set by the stepper at
// the top of Step), and the shared phase functions over them. replicas[0] is
// the observed replica — the only one whose timings feed the breakdown.
type round struct {
	c        *Cluster
	res      *Result
	topology string

	iter     int
	ctx      context.Context
	qw, qps  int
	replicas []replica
	// partial is set when some of the slots the round should drive are hosted
	// by other processes (see Wiring.Serve): those replicas run the same round
	// on their own schedule, with no stage boundary shared with this one.
	partial bool

	// The concurrent fan-out of run: runners[k] runs stage at replica k,
	// bound once per replica position so a stage starts without closures.
	stage   []phase
	runners []func()
	wg      sync.WaitGroup
	errs    []error
}

func (rd *round) Observed() *Server { return rd.replicas[0].s }

func (rd *round) start(res *Result) { rd.res = res }

// drive makes the given replica slots — those of them this process hosts —
// the round's replica set.
func (rd *round) drive(slots []int) {
	rd.replicas = rd.replicas[:0]
	for _, r := range slots {
		if s := rd.c.hostedServer(r); s != nil {
			rd.replicas = append(rd.replicas, replica{idx: r, s: s})
		}
	}
	rd.partial = len(rd.replicas) < len(slots)
}

// bind resolves every replica's aggregators for the round's quorums: rule
// over q_w inputs tolerating fw and, when modelRule is set, modelRule over
// q_ps inputs tolerating fps. A failure is an infeasible rule for the current
// roster shape.
func (rd *round) bind(rule string, fw int, modelRule string, fps int) error {
	for k := range rd.replicas {
		r := &rd.replicas[k]
		var err error
		if r.gradAgg, err = rd.c.gradAggs.get(r.idx, rule, rd.qw, fw); err == nil && modelRule != "" {
			r.modelAgg, err = rd.c.modelAggs.get(r.idx, modelRule, rd.qps, fps)
		}
		if err != nil {
			return fmt.Errorf("core: %s: %w", rd.topology, err)
		}
	}
	return nil
}

// run executes iteration i's stages over the replica set under one pull
// deadline, in one of two loop nestings. Deterministic mode — and any
// one-replica round — runs phase-major on the caller's goroutine: every
// replica finishes a phase, in replica order, before any starts the next,
// which is each stage's barrier expressed as program order and the only
// schedule a virtual clock can drive reproducibly. Otherwise every stage
// fans out one goroutine per replica and wg.Wait is the barrier between
// stages. Either way the first failure (in replica order) ends the round:
// no later stage runs, no goroutine outlives the call, and the error names
// the topology, iteration, replica and phase once, here.
func (rd *round) run(i int, stages [][]phase) error {
	if len(rd.replicas) == 0 {
		return fmt.Errorf("%w: %s iteration %d: this process hosts none of the round's replicas", ErrConfig, rd.topology, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rd.c.cfg.PullTimeout)
	defer cancel()
	rd.iter, rd.ctx = i, ctx
	if rd.c.cfg.Deterministic || len(rd.replicas) == 1 {
		for _, stage := range stages {
			for _, ph := range stage {
				for k := range rd.replicas {
					if err := ph.run(k); err != nil {
						return rd.fail(k, ph, err)
					}
				}
			}
		}
		return nil
	}
	for len(rd.runners) < len(rd.replicas) {
		k := len(rd.runners)
		rd.runners = append(rd.runners, func() {
			defer rd.wg.Done()
			for _, ph := range rd.stage {
				if err := ph.run(k); err != nil {
					rd.errs[k] = rd.fail(k, ph, err)
					return
				}
			}
		})
	}
	for _, stage := range stages {
		rd.stage = stage
		rd.errs = append(rd.errs[:0], make([]error, len(rd.replicas))...)
		rd.wg.Add(len(rd.replicas))
		for k := range rd.replicas {
			go rd.runners[k]()
		}
		rd.wg.Wait()
		for _, err := range rd.errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (rd *round) fail(k int, ph phase, err error) error {
	return fmt.Errorf("core: %s iteration %d replica %d %s: %w", rd.topology, rd.iter, rd.replicas[k].idx, ph.name, err)
}

// observe returns the breakdown for the observed replica and nil — do not
// time — for the rest.
func (rd *round) observe(k int) *metrics.Breakdown {
	if k == 0 {
		return rd.res.Breakdown
	}
	return nil
}

func (rd *round) pullInto(k int, p pullReq, agg *Aggregator) error {
	r := &rd.replicas[k]
	var err error
	r.vec, err = r.s.pullAggregate(rd.ctx, p, agg, rd.c.clock, rd.observe(k))
	return err
}

// The phases of Listings 1-3. gradients, contractPull and models leave their
// aggregate in replica.vec; update, publish and write consume it.

func (rd *round) gradients(k int) error {
	r := &rd.replicas[k]
	return rd.pullInto(k, r.s.gradientsReq(rd.iter, rd.qw), r.gradAgg)
}

func (rd *round) update(k int) error { return rd.replicas[k].s.UpdateModel(rd.replicas[k].vec) }

func (rd *round) models(k int) error {
	r := &rd.replicas[k]
	return rd.pullInto(k, r.s.modelsReq(rd.qps), r.modelAgg)
}

func (rd *round) write(k int) error { return rd.replicas[k].s.WriteModel(rd.replicas[k].vec) }

// publish and contractPull are one round of Listing 3's contract step
// (lines 16-21): publish the aggregated gradient, pull the peers' and
// re-aggregate with the gradient rule (the pulled set has the gradient set's
// shape). SetLatestAggrGrad clones, so the re-aggregation may overwrite the
// rule's buffer.
func (rd *round) publish(k int) error {
	rd.replicas[k].s.SetLatestAggrGrad(rd.replicas[k].vec)
	return nil
}

// A peer declines the pull until it has published. In a full round the
// publish stage has ended before this one starts, so a quorum miss is a
// failure; in a partial round the peers elsewhere may simply not be there
// yet, so the pull is repeated, paced on the cluster clock, until the round's
// deadline.
func (rd *round) contractPull(k int) error {
	r := &rd.replicas[k]
	for backoff := contractRetryBase; ; backoff = min(2*backoff, contractRetryCap) {
		err := rd.pullInto(k, r.s.aggrGradsReq(rd.qps), r.gradAgg)
		if !rd.partial || !errors.Is(err, rpc.ErrQuorum) || rd.ctx.Err() != nil {
			return err
		}
		rd.c.clock.Sleep(backoff)
	}
}

const (
	contractRetryBase = 2 * time.Millisecond
	contractRetryCap  = 100 * time.Millisecond
)

// singleServerStepper is the round of the single-server topologies (vanilla,
// SSMW, AggregaThor): the roster's first replica pulls a full worker quorum,
// aggregates with the topology's rule and applies the update. The roster is
// re-read every step, so mid-run joins/leaves take effect at the next round.
type singleServerStepper struct {
	round
	stages [][]phase
	rule   string
	robust bool
}

func newSingleServerStepper(c *Cluster, rule string, robust bool, name string) *singleServerStepper {
	st := &singleServerStepper{round: round{c: c, topology: name}, rule: rule, robust: robust}
	st.stages = [][]phase{{{"gradients", st.gradients}, {"update", st.update}}}
	return st
}

func (st *singleServerStepper) Step(i int) (bool, error) {
	ro := st.c.Roster()
	st.drive(ro.Servers[:1])
	f := 0
	if st.robust {
		f = ro.FW
	}
	st.qw = ro.NW()
	if err := st.bind(st.rule, f, "", 0); err != nil {
		return false, err
	}
	err := st.run(i, st.stages)
	return err == nil, err
}

// crashStepper is the round of the strawman crash-tolerant baseline of
// Section 6.2: every live replica collects all worker gradients and averages
// them, so a backup's model stays close to the primary's. The primary is the
// first live replica; its failure aborts the run, a backup's does not.
type crashStepper struct {
	round
	stages [][]phase
	live   []int
}

func newCrashStepper(c *Cluster) *crashStepper {
	st := &crashStepper{round: round{c: c, topology: "crash-tolerant"}}
	st.stages = [][]phase{{{"gradients+update", st.average}}}
	return st
}

// average is gradients then update at replica k. A backup that fails its
// round falls a step behind, which the strawman accepts (Section 6.2), so
// only the primary's error is reported.
func (st *crashStepper) average(k int) error {
	err := st.gradients(k)
	if err == nil {
		err = st.update(k)
	}
	if k != 0 {
		return nil
	}
	return err
}

func (st *crashStepper) Step(i int) (bool, error) {
	c := st.c
	ro := c.Roster()
	st.live = c.liveServers(ro, st.live[:0])
	if len(st.live) == 0 {
		return false, fmt.Errorf("core: crash-tolerant: all %d replicas crashed or departed", c.Servers())
	}
	st.drive(st.live)
	st.qw = ro.NW()
	if err := st.bind(gar.NameAverage, 0, "", 0); err != nil {
		return false, err
	}
	err := st.run(i, st.stages)
	return err == nil, err
}

// msmwStepper is the round of the multi-server multi-worker application of
// Listing 2, one stage end to end: every honest replica collects q_w
// gradients, robust-aggregates and updates, then (on contraction rounds)
// pulls q_ps peer models, robust-aggregates those and overwrites its state —
// barrier-free when run concurrently, exactly as a real deployment, with the
// quorums doing the aligning. Byzantine replicas need no training loop: their
// adversarial behaviour lives in how they answer pulls.
type msmwStepper struct {
	round
	stages, gradOnly [][]phase
}

func newMSMWStepper(c *Cluster) *msmwStepper {
	st := &msmwStepper{round: round{c: c, topology: "msmw"}}
	all := []phase{{"gradients", st.gradients}, {"update", st.update}, {"models", st.models}, {"write", st.write}}
	st.stages, st.gradOnly = [][]phase{all}, [][]phase{all[:2]}
	return st
}

func (st *msmwStepper) Step(i int) (bool, error) {
	cfg := st.c.cfg
	ro := st.c.Roster()
	honest := ro.HonestServers()
	if len(honest) == 0 {
		return false, fmt.Errorf("%w: msmw iteration %d: no honest replicas left", ErrConfig, i)
	}
	st.drive(honest)
	st.qw, st.qps = ro.NW()-ro.FW, ro.NPS()-ro.FPS
	if cfg.SyncQuorum {
		st.qw, st.qps = ro.NW(), ro.NPS()
	}
	if err := st.bind(cfg.Rule, ro.FW, cfg.ModelRule, ro.FPS); err != nil {
		return false, err
	}
	stages := st.stages
	if (i+1)%cfg.ModelAggEvery != 0 {
		stages = st.gradOnly // contraction is periodic; no model exchange this round
	}
	err := st.run(i, stages)
	return err == nil, err
}

// decentralizedStepper is the round of the peer-to-peer application of
// Listing 3: every node pairs a Worker with a Server, and each round runs
// collect → aggregate → (contract) → update → model exchange across the
// honest nodes (the first n - f). Every phase is its own stage: a real
// deployment gets that alignment from the pull quorums themselves, in
// process the stage barrier makes it explicit — everyone published before
// anyone pulls, everyone updated before the model exchange, everyone pulled
// before anyone overwrites its state.
type decentralizedStepper struct {
	round
	stages [][]phase
	honest []int
}

func newDecentralizedStepper(c *Cluster) *decentralizedStepper {
	cfg := c.cfg
	st := &decentralizedStepper{round: round{c: c, topology: "decentralized"}}
	st.stages = [][]phase{{{"gradients", st.gradients}}}
	if cfg.NonIID {
		for step := 0; step < cfg.ContractSteps; step++ {
			st.stages = append(st.stages, []phase{{"contract publish", st.publish}}, []phase{{"contract pull", st.contractPull}})
		}
	}
	st.stages = append(st.stages, []phase{{"update", st.update}}, []phase{{"models", st.models}}, []phase{{"write", st.write}})
	for r := 0; r < cfg.NW-cfg.FW; r++ {
		st.honest = append(st.honest, r)
	}
	st.qw = cfg.NW - cfg.FW
	if cfg.SyncQuorum {
		st.qw = cfg.NW
	}
	st.qps = st.qw
	return st
}

func (st *decentralizedStepper) Step(i int) (bool, error) {
	cfg := st.c.cfg
	st.drive(st.honest)
	if err := st.bind(cfg.Rule, cfg.FW, cfg.ModelRule, cfg.FW); err != nil {
		return false, err
	}
	err := st.run(i, st.stages)
	return err == nil, err
}
