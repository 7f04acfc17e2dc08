package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"garfield/internal/metrics"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// The asynchronous bounded-staleness execution path. The lockstep protocols
// of protocols.go advance one iteration at a time, waiting for a full pull
// round before every update; here the servers and workers are decoupled the
// way the paper's asynchronous deployment mode describes: per-worker fetcher
// loops pull a gradient estimate against the current model state, tag it
// with the step its parameters came from, enqueue it, and wait for the step
// to move before pulling again. The server-side step loop aggregates as soon as a quorum
// q = n_w - f_w of sufficiently fresh gradients is available — a straggler
// or crashed worker delays nothing, it simply stops contributing.
//
// Staleness control follows the standard bounded-staleness recipe: a
// gradient computed at step t0 and consumed at step t has staleness t - t0.
// Entries staler than the bound tau are discarded; accepted stale entries
// are damped by damping^staleness, shrinking the contribution of gradients
// computed against old parameters instead of letting them drag the model
// back. Config.StalenessBound / Config.StalenessDamping tune both knobs.
//
// The engine is roster-aware: the step loop polls the cluster's roster epoch
// between iterations; on a transition it rebinds — fetchers of departed
// workers are cancelled, fetchers for joiners are spawned, their queues are
// dropped or created, and the quorum and aggregator shapes track the new
// fleet. The iteration in flight completes against the old roster.
//
// Two determinism regimes exist, mirroring the lockstep protocols:
//
//   - the live engine (goroutine fetchers, real queues) is throughput-true
//     but scheduling-dependent, like any async system;
//   - with Config.Deterministic set, RunAsyncSSMW switches to a
//     single-threaded seeded replay (runAsyncSSMWReplay): worker fetch
//     latencies are drawn from an RNG derived from the cluster seed, and
//     the whole queue/staleness-filter/damping pipeline runs over that
//     synthetic schedule, so a run is bit-identical at the same seed. The
//     replay snapshots the roster once at run start — segmented scenarios
//     apply churn between runs, and each run re-reads the roster.

// Default async tuning; see Config.StalenessBound / StalenessDamping.
const (
	DefaultStalenessBound   = 3
	DefaultStalenessDamping = 0.5
)

// asyncQueueDepth bounds each worker's queue: a slow consumer sees at most
// this many pending estimates per worker, newest kept, oldest evicted.
const asyncQueueDepth = 2

// taggedGrad is one queued gradient estimate and the step of the model state
// it was computed against.
type taggedGrad struct {
	vec  tensor.Vector
	step uint32
}

// gradQueues is the per-worker bounded queue set shared by the fetchers
// (producers) and the server step loop (consumer). Queues are keyed by the
// worker's stable slot index and gated by a membership set, so a roster
// rebind drops departed workers' queues and a straggling fetcher of a
// departed worker cannot re-insert one.
type gradQueues struct {
	mu     sync.Mutex
	slots  map[int][]taggedGrad // per member worker, oldest first
	member map[int]bool
	drops  int // entries discarded for exceeding the bound
	// notify wakes the consumer after a push; capacity 1 is enough because
	// the consumer re-scans all slots on every wake.
	notify chan struct{}
}

func newGradQueues(workers []int) *gradQueues {
	g := &gradQueues{
		slots:  make(map[int][]taggedGrad, len(workers)),
		member: make(map[int]bool, len(workers)),
		notify: make(chan struct{}, 1),
	}
	for _, w := range workers {
		g.member[w] = true
	}
	return g
}

// rebind replaces the membership set: departed workers' queues (and any
// estimate they hold — computed for the old roster) are dropped, joiners get
// an empty queue on their first push.
func (g *gradQueues) rebind(workers []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh := make(map[int]bool, len(workers))
	for _, w := range workers {
		fresh[w] = true
	}
	for w := range g.slots {
		if !fresh[w] {
			delete(g.slots, w)
		}
	}
	g.member = fresh
}

// push enqueues a tagged gradient for worker w, evicting the oldest entry
// when the slot is full, and wakes the consumer. Pushes from non-members
// (a fetcher racing its own cancellation across a rebind) are ignored.
func (g *gradQueues) push(w int, tg taggedGrad) {
	g.mu.Lock()
	if !g.member[w] {
		g.mu.Unlock()
		return
	}
	slot := g.slots[w]
	if len(slot) >= asyncQueueDepth {
		copy(slot, slot[1:])
		slot = slot[:len(slot)-1]
	}
	g.slots[w] = append(slot, tg)
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// asyncPick is one selected gradient with its provenance.
type asyncPick struct {
	worker    int
	staleness int
	vec       tensor.Vector
}

// tryCollect scans the queues at model step now: entries staler than tau are
// dropped, and if at least q workers still have a fresh entry, the q
// freshest (ties broken by worker index, so selection is reproducible given
// the same queue state) are popped and returned.
func (g *gradQueues) tryCollect(now uint32, q, tau int) []asyncPick {
	g.mu.Lock()
	defer g.mu.Unlock()
	candidates := make([]asyncPick, 0, len(g.slots))
	for w, slot := range g.slots {
		// Evict entries beyond the bound; the slot is oldest-first, so the
		// fresh suffix survives.
		keep := 0
		for keep < len(slot) && int(now-slot[keep].step) > tau {
			keep++
		}
		if keep > 0 {
			g.drops += keep
			copy(slot, slot[keep:])
			g.slots[w] = slot[:len(slot)-keep]
			slot = g.slots[w]
		}
		if len(slot) == 0 {
			continue
		}
		newest := slot[len(slot)-1]
		candidates = append(candidates, asyncPick{
			worker: w, staleness: int(now - newest.step), vec: newest.vec,
		})
	}
	if len(candidates) < q {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].staleness != candidates[j].staleness {
			return candidates[i].staleness < candidates[j].staleness
		}
		return candidates[i].worker < candidates[j].worker
	})
	picked := candidates[:q]
	for _, p := range picked {
		slot := g.slots[p.worker]
		g.slots[p.worker] = slot[:len(slot)-1] // pop the newest (the one selected)
	}
	return picked
}

// collect blocks until tryCollect succeeds or the deadline passes.
func (g *gradQueues) collect(now uint32, q, tau int, timeout time.Duration) ([]asyncPick, error) {
	//lint:allow wallclock(liveness timeout of the live async engine; deterministic async runs use the single-threaded replay, which never calls collect)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if picked := g.tryCollect(now, q, tau); picked != nil {
			return picked, nil
		}
		select {
		case <-g.notify:
		case <-timer.C:
			return nil, fmt.Errorf("core: async step %d: %w: fewer than %d fresh gradients within %v",
				now, rpc.ErrQuorum, q, timeout)
		}
	}
}

// dropCount returns the number of bound-exceeding entries discarded so far.
func (g *gradQueues) dropCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.drops
}

// asyncFetch is one worker's fetcher loop: snapshot the replica's model,
// pull a gradient estimate against it, tag it with the snapshot step,
// enqueue, and wait for the model to step (the worker's memo would serve a
// re-pull the same estimate). Failures (a crashed worker, an omitted
// Byzantine reply) back off and retry — a missing worker costs freshness,
// never progress. The worker's address is resolved at spawn time: a fetcher
// belongs to one roster binding and is cancelled, not retargeted, when the
// worker departs.
func (c *Cluster) asyncFetch(ctx context.Context, s *Server, queues *gradQueues, w int, addr string) {
	backoff := time.Millisecond
	for ctx.Err() == nil {
		params, step := s.Snapshot()
		callCtx, cancel := context.WithTimeout(ctx, c.cfg.PullTimeout)
		vec, err := s.client.Call(callCtx, addr, rpc.Request{
			Kind: rpc.KindGetGradient, Step: step, Accept: s.accept, Vec: params,
		})
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Back off on the cluster clock (virtual under the simulator
			// wiring) so retry pacing cannot leak wall time into a
			// simulated run.
			c.clock.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		queues.push(w, taggedGrad{vec: vec, step: step})
		s.awaitStep(ctx, step)
	}
}

// dampPicks scales stale gradients by damping^staleness in place (the popped
// vectors are owned by the caller) and returns the summed staleness.
func dampPicks(picks []asyncPick, damping float64) (staleSum int) {
	for _, p := range picks {
		staleSum += p.staleness
		if p.staleness == 0 || damping == 1 {
			continue
		}
		f := math.Pow(damping, float64(p.staleness))
		for i := range p.vec {
			p.vec[i] *= f
		}
	}
	return staleSum
}

// pickVectors extracts the gradient vectors in selection order.
func pickVectors(picks []asyncPick) []tensor.Vector {
	out := make([]tensor.Vector, len(picks))
	for i, p := range picks {
		out[i] = p.vec
	}
	return out
}

// RunAsyncSSMW trains the single-server multi-worker topology with the
// bounded-staleness engine: the server updates as soon as q_w = n_w - f_w
// sufficiently fresh gradients are queued, instead of barrier-waiting a full
// pull round. With Config.Deterministic it switches to the seeded
// single-threaded replay, which is bit-identical across runs at one seed.
func (c *Cluster) RunAsyncSSMW(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c.cfg.Deterministic {
		return c.runAsyncSSMWReplay(opt)
	}
	res := newResult("async-ssmw")
	start := c.clock.Now()
	wire0 := c.WireStats()
	slot := c.Roster().Servers[0]
	if err := c.asyncReplicaLoop(res, slot, false, opt, start, true); err != nil {
		return nil, fmt.Errorf("core: async-ssmw: %w", err)
	}
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// RunAsyncMSMW trains the replicated topology asynchronously: every honest
// replica runs its own bounded-staleness gradient loop (own fetchers, own
// queues), and every Config.ModelAggEvery updates it pulls q_ps = n_ps -
// f_ps peer models and robust-aggregates them — without any cross-replica
// barrier, so replicas observe each other mid-update and contraction is what
// keeps them close. Accuracy, throughput and staleness are observed at the
// first honest replica. Deterministic mode is not supported here (the replay
// story covers the single-server topology); RunAsyncMSMW returns ErrConfig
// for it.
func (c *Cluster) RunAsyncMSMW(opt RunOptions) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c.Roster().NPS() < 2 {
		return nil, fmt.Errorf("%w: async msmw needs at least 2 server replicas", ErrConfig)
	}
	if c.cfg.Deterministic {
		return nil, fmt.Errorf("%w: deterministic async replay supports the single-server topology only", ErrConfig)
	}
	honest := c.Roster().HonestServers()
	res := newResult("async-msmw")
	start := c.clock.Now()
	wire0 := c.WireStats()
	var wg sync.WaitGroup
	errs := make([]error, len(honest))
	for k, r := range honest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = c.asyncReplicaLoop(res, r, true, opt, start, k == 0)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: async-msmw replica %d: %w", honest[k], err)
		}
	}
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// asyncReplicaLoop drives replica slot's bounded-staleness training loop:
// fetchers feed the queues, each iteration collects a fresh quorum, damps,
// aggregates and updates, and (with contract set) every ModelAggEvery
// updates the replica contracts toward its peers by pulling and
// robust-aggregating q_ps models. Between iterations the loop polls the
// roster epoch and rebinds on a transition: departed workers' fetchers are
// cancelled and their queues dropped, joiners get fresh fetchers, and the
// quorums and aggregator shapes follow the new fleet. Only the recording
// replica writes into res.
func (c *Cluster) asyncReplicaLoop(res *Result, slot int, contract bool, opt RunOptions, start time.Time, record bool) error {
	cfg := c.cfg
	s := c.Server(slot)
	tau, damping := cfg.asyncParams()

	ctx, cancel := context.WithCancel(context.Background())
	var fetchers sync.WaitGroup
	// Stop order matters: cancel the fetchers, then wait them out (defers
	// run last-in first-out).
	defer fetchers.Wait()
	defer cancel()

	ro := c.Roster()
	queues := newGradQueues(ro.Workers)
	cancels := make(map[int]context.CancelFunc, len(ro.Workers))
	spawn := func(w int, addr string) {
		fctx, fcancel := context.WithCancel(ctx)
		cancels[w] = fcancel
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			c.asyncFetch(fctx, s, queues, w, addr)
		}()
	}
	for k, w := range ro.Workers {
		spawn(w, ro.WorkerAddrs[k])
	}

	var bd *metrics.Breakdown // nil records nothing
	if record {
		bd = res.Breakdown
	}
	staleSum, quorumSum := 0, 0
	for i := 0; i < opt.Iterations; i++ {
		if fresh := c.Roster(); fresh.Epoch != ro.Epoch {
			ro = fresh
			queues.rebind(ro.Workers)
			member := make(map[int]bool, len(ro.Workers))
			for _, w := range ro.Workers {
				member[w] = true
			}
			for w, fcancel := range cancels {
				if !member[w] {
					fcancel()
					delete(cancels, w)
				}
			}
			for k, w := range ro.Workers {
				if _, ok := cancels[w]; !ok {
					spawn(w, ro.WorkerAddrs[k])
				}
			}
		}
		q := ro.NW() - ro.FW
		ga, err := c.gradAggs.get(slot, cfg.Rule, q, ro.FW)
		if err != nil {
			return fmt.Errorf("async iteration %d: %w", i, err)
		}
		t0 := c.clock.Now()
		picks, err := queues.collect(s.Step(), q, tau, cfg.PullTimeout)
		t1 := c.clock.Now()
		bd.AddComm(t1.Sub(t0))
		if err != nil {
			return err
		}
		staleSum += dampPicks(picks, damping)
		quorumSum += q
		aggr, err := ga.Aggregate(pickVectors(picks))
		bd.AddAgg(c.clock.Now().Sub(t1))
		if err != nil {
			return fmt.Errorf("async iteration %d: %w", i, err)
		}
		if err := s.UpdateModel(aggr); err != nil {
			return err
		}
		if contract && (i+1)%cfg.ModelAggEvery == 0 {
			qps := ro.NPS() - ro.FPS
			ma, err := c.modelAggs.get(slot, cfg.ModelRule, qps, ro.FPS)
			if err != nil {
				return fmt.Errorf("async iteration %d: %w", i, err)
			}
			// Barrier-free contraction: whatever state the fastest q_ps
			// peers are in is what gets aggregated.
			xctx, xcancel := context.WithTimeout(ctx, cfg.PullTimeout)
			err = s.exchangeModels(xctx, qps, ma, c.clock, nil)
			xcancel()
			if err != nil {
				return fmt.Errorf("async iteration %d: %w", i, err)
			}
		}
		if record {
			res.Breakdown.EndIteration()
			res.Updates++
			if err := c.recordAccuracy(res, s, opt, i, start); err != nil {
				return err
			}
		}
	}
	if record {
		if quorumSum > 0 {
			res.AvgStaleness = float64(staleSum) / float64(quorumSum)
		}
		res.StaleDrops = queues.dropCount()
	}
	return nil
}

// asyncReplaySalt domain-separates the replay schedule RNG from every other
// consumer of the cluster seed.
const asyncReplaySalt = 0x61737963 // "asyc"

// replayFetch models one worker's in-flight pull in the seeded replay.
type replayFetch struct {
	tag  uint32  // step of the parameters the fetch observes
	done float64 // virtual completion time
	dead bool    // worker no longer answers (crashed or always-omitting)
}

// replayLatency draws one fetch duration (in model steps) from the replay's
// latency process: most fetches take about one step, a seeded minority
// straggle by up to tau+1 extra steps so the staleness filter and damping
// genuinely engage.
func replayLatency(rng *tensor.RNG, tau int) float64 {
	l := 0.6 + 0.8*rng.Float64()
	if rng.Float64() < 0.2 {
		l += float64(1 + rng.Intn(tau+1))
	}
	return l
}

// runAsyncSSMWReplay is the deterministic counterpart of the live async
// engine: a single-threaded event simulation in which worker fetch latencies
// come from an RNG seeded by the cluster seed instead of the scheduler. The
// same queue semantics apply — gradients are tagged with the step of the
// parameters they observed, filtered by the staleness bound and damped — but
// fetch completion order is a pure function of the seed, so two runs are
// bit-identical. Gradient pulls still travel the real RPC path (issued
// sequentially, in completion order), so attacks, momentum and fault
// injection behave exactly as in the live engine. The roster is snapshotted
// once at run start: segmented scenarios apply churn between runs, and the
// fleet shape at that point (not the construction-time Config) defines the
// schedule, so the replay stays bit-identical per (seed, roster).
func (c *Cluster) runAsyncSSMWReplay(opt RunOptions) (*Result, error) {
	cfg := c.cfg
	ro := c.Roster()
	q := ro.NW() - ro.FW
	tau, damping := cfg.asyncParams()
	agg, err := c.gradAggs.get(ro.Servers[0], cfg.Rule, q, ro.FW)
	if err != nil {
		return nil, fmt.Errorf("core: async-ssmw: %w", err)
	}
	res := newResult("async-ssmw")
	s := c.Server(ro.Servers[0])
	rng := tensor.NewRNG(cfg.Seed ^ asyncReplaySalt)

	// Ring of parameter snapshots for the last tau+1 steps: a fetch tagged
	// with step t0 reads snapshots[t0 % depth], valid exactly while the
	// result could still pass the staleness filter.
	depth := uint32(tau + 1)
	snapshots := make([]tensor.Vector, depth)

	fetches := make([]replayFetch, ro.NW())
	vt := 0.0 // virtual clock
	for k := range fetches {
		fetches[k] = replayFetch{tag: s.Step(), done: replayLatency(rng, tau)}
	}

	start := c.clock.Now()
	wire0 := c.WireStats()
	staleSum, drops := 0, 0
	for i := 0; i < opt.Iterations; i++ {
		now := s.Step()
		snapshots[now%depth] = s.Params()

		// Run fetch completions, earliest virtual finisher first, until q
		// distinct workers hold a fresh gradient for this step.
		ready := make(map[int]asyncPick, q)
		guard := 0
		for len(ready) < q {
			if guard++; guard > 4*ro.NW()*(tau+2)+16 {
				return nil, fmt.Errorf("core: async-ssmw replay step %d: schedule failed to produce a quorum", now)
			}
			k, live := -1, 0
			for j := range fetches {
				if fetches[j].dead {
					continue
				}
				live++
				if k < 0 || fetches[j].done < fetches[k].done {
					k = j
				}
			}
			if live < q {
				return nil, fmt.Errorf("core: async-ssmw replay step %d: %w: %d live workers for quorum %d",
					now, rpc.ErrQuorum, live, q)
			}
			if fetches[k].done > vt {
				vt = fetches[k].done
			}
			if staleness := int(now - fetches[k].tag); staleness <= tau {
				vec, err := c.replayPull(s, ro.WorkerAddrs[k], fetches[k].tag, snapshots[fetches[k].tag%depth])
				if err != nil {
					// A crashed or always-omitting worker: out of the
					// schedule for the rest of this run segment.
					fetches[k].dead = true
					continue
				}
				ready[k] = asyncPick{worker: ro.Workers[k], staleness: staleness, vec: vec}
			} else {
				drops++ // completed too stale to be worth pulling
			}
			// Start the next fetch against the current model state.
			fetches[k].tag = now
			fetches[k].done = vt + replayLatency(rng, tau)
		}

		picks := make([]asyncPick, 0, len(ready))
		for _, p := range ready {
			picks = append(picks, p)
		}
		sort.Slice(picks, func(a, b int) bool {
			if picks[a].staleness != picks[b].staleness {
				return picks[a].staleness < picks[b].staleness
			}
			return picks[a].worker < picks[b].worker
		})
		staleSum += dampPicks(picks, damping)
		aggr, err := agg.Aggregate(pickVectors(picks))
		if err != nil {
			return nil, fmt.Errorf("core: async-ssmw replay iteration %d: %w", i, err)
		}
		if err := s.UpdateModel(aggr); err != nil {
			return nil, err
		}
		res.Breakdown.EndIteration()
		res.Updates++
		if err := c.recordAccuracy(res, s, opt, i, start); err != nil {
			return nil, err
		}
	}
	if opt.Iterations > 0 && q > 0 {
		res.AvgStaleness = float64(staleSum) / float64(opt.Iterations*q)
	}
	res.StaleDrops = drops
	res.WallTime = c.clock.Now().Sub(start)
	res.Wire = c.WireStats().Sub(wire0)
	return res, nil
}

// replayPull issues one sequential gradient pull over the real RPC path for
// the replay engine.
func (c *Cluster) replayPull(s *Server, addr string, step uint32, params tensor.Vector) (tensor.Vector, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PullTimeout)
	defer cancel()
	return s.client.Call(ctx, addr, rpc.Request{
		Kind: rpc.KindGetGradient, Step: step, Accept: s.accept, Vec: params,
	})
}
