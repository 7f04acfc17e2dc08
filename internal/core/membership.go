package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"

	"garfield/internal/data"
	"garfield/internal/gar"
)

// This file is the membership/reconfiguration layer: the roster of workers
// and server replicas a Cluster drives is no longer fixed at construction.
// Nodes join (bootstrapping state from the v2 checksummed checkpoint), leave
// gracefully (drain-and-depart), depart on crash evidence (the transport's
// per-address sever epochs), and scale in batches. Every transition is one
// roster epoch: the prospective fleet shape is validated against the
// configured GAR's n >= g(f) floor and the asynchronous q = n - f quorum
// requirement before it is committed, the pull-target lists of every active
// server replica are rebound, and the epoch counter is bumped. Protocol
// runners snapshot the roster per round, so rounds in flight complete
// against the old roster while new rounds observe the new one.

// Roster is an immutable snapshot of the active fleet at one epoch. Indices
// are stable: they name node slots in the Cluster's append-only tables, so a
// snapshot taken at epoch e can still address its nodes after later
// transitions. The address slices are parallel to the index slices. A
// snapshot is built once per epoch and every Roster call of that epoch
// returns the same slices, so holders read them and never write.
type Roster struct {
	// Epoch is the roster version this snapshot was taken at. Epoch 0 is
	// the construction-time fleet; every join/leave/depart/scale bumps it.
	Epoch uint64

	// Workers holds the active worker indices in ascending order, and
	// WorkerAddrs their network addresses. FW counts the active workers
	// that were declared Byzantine at construction (joiners are honest);
	// WorkersByz marks which (parallel to Workers).
	Workers     []int
	WorkerAddrs []string
	WorkersByz  []bool
	FW          int

	// Servers, ServerAddrs, ServersByz and FPS are the server-replica
	// mirror.
	Servers     []int
	ServerAddrs []string
	ServersByz  []bool
	FPS         int

	honest []int // see HonestServers
}

// NW returns the active worker count.
func (r Roster) NW() int { return len(r.Workers) }

// NPS returns the active server-replica count.
func (r Roster) NPS() int { return len(r.Servers) }

// HonestServers returns the active non-Byzantine replica indices — the
// replicas whose training loops the protocol runners drive. Like the other
// slices it is computed once per snapshot and read-only.
func (r Roster) HonestServers() []int { return r.honest }

// Roster returns the snapshot of the current active fleet.
func (c *Cluster) Roster() Roster {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.roster
}

// RosterEpoch returns the current roster version without building the full
// snapshot — the cheap check the async engine polls between rounds.
func (c *Cluster) RosterEpoch() uint64 {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.epoch
}

// buildRosterLocked derives a snapshot from the node tables and active flags
// as they stand — the committed fleet, or mid-transition the prospective one.
func (c *Cluster) buildRosterLocked() Roster {
	r := Roster{Epoch: c.epoch}
	for i, active := range c.workerActive {
		if !active {
			continue
		}
		r.Workers = append(r.Workers, i)
		r.WorkerAddrs = append(r.WorkerAddrs, c.workerAddrs[i])
		r.WorkersByz = append(r.WorkersByz, c.workerByz[i])
		if c.workerByz[i] {
			r.FW++
		}
	}
	for i, active := range c.serverActive {
		if !active {
			continue
		}
		r.Servers = append(r.Servers, i)
		r.ServerAddrs = append(r.ServerAddrs, c.serverAddrs[i])
		r.ServersByz = append(r.ServersByz, c.serverByz[i])
		if c.serverByz[i] {
			r.FPS++
		} else {
			r.honest = append(r.honest, i)
		}
	}
	return r
}

// ValidateFleet checks a fleet shape against the resilience requirements of
// the rules that aggregate over it: the gradient GAR's n >= g(f) floor, the
// asynchronous quorum q = n - f (the q fastest replies must still be enough
// inputs for the GAR), and — when the deployment is replicated — the
// model-aggregation rule's floor across server replicas. It is the one place
// these floors are computed: the membership layer runs it on every roster
// transition, scenario validation on every step of a churn schedule.
func ValidateFleet(rule, modelRule string, nw, fw, nps, fps int) error {
	if nw < 1 || fw >= nw {
		return fmt.Errorf("%w: roster left with nw=%d fw=%d", ErrConfig, nw, fw)
	}
	min, err := gar.MinN(rule, fw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if nw < min {
		return fmt.Errorf("%w: roster transition leaves nw=%d below g(f)=%d for rule %q at fw=%d",
			ErrConfig, nw, min, rule, fw)
	}
	if q := nw - fw; q < min {
		return fmt.Errorf("%w: roster transition leaves async quorum q=n-f=%d below g(f)=%d for rule %q at fw=%d",
			ErrConfig, q, min, rule, fw)
	}
	if nps < 1 || fps >= nps {
		return fmt.Errorf("%w: roster left with nps=%d fps=%d", ErrConfig, nps, fps)
	}
	if nps >= 2 {
		minM, err := gar.MinN(modelRule, fps)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
		if nps < minM {
			return fmt.Errorf("%w: roster transition leaves nps=%d below g(f)=%d for model rule %q at fps=%d",
				ErrConfig, nps, minM, modelRule, fps)
		}
	}
	return nil
}

// validateTransition is ValidateFleet for the configured rules. A transition
// that fails it is rejected and leaves the roster unchanged.
func (c *Cluster) validateTransition(nw, fw, nps, fps int) error {
	return ValidateFleet(c.cfg.Rule, c.cfg.ModelRule, nw, fw, nps, fps)
}

// prospective returns the fleet shape the current active flags describe,
// for feeding validateTransition before flags are flipped.
func (c *Cluster) prospectiveLocked() (nw, fw, nps, fps int) {
	for i, a := range c.workerActive {
		if a {
			nw++
			if c.workerByz[i] {
				fw++
			}
		}
	}
	for i, a := range c.serverActive {
		if a {
			nps++
			if c.serverByz[i] {
				fps++
			}
		}
	}
	return nw, fw, nps, fps
}

// commitLocked finalizes a validated transition: bumps the epoch, builds its
// snapshot — the one every Roster call returns until the next transition —
// and rebinds the pull-target lists of every active server replica to it.
// In-flight pull rounds keep the list snapshot they started with.
func (c *Cluster) commitLocked() {
	c.epoch++
	c.roster = c.buildRosterLocked()
	r := c.roster
	for _, i := range r.Servers {
		c.servers[i].SetWorkers(r.WorkerAddrs)
		c.servers[i].SetPeers(r.ServerAddrs)
	}
}

// joinSeed derives the data-sharding seed of joiner idx by domain separation
// from the cluster seed, so joiner shards are deterministic per seed but
// uncorrelated with the construction-time partition.
func joinSeed(seed uint64, idx int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte("/join-worker/" + strconv.Itoa(idx)))
	return h.Sum64()
}

// JoinWorker adds one honest worker to the roster and returns its index.
// The joiner gets a deterministic IID shard of the training set, the same
// codec/momentum/determinism options as the construction-time fleet, and is
// visible to every active server replica from the next pull round on.
func (c *Cluster) JoinWorker() (int, error) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	idx, err := c.joinWorkerLocked()
	if err != nil {
		return 0, err
	}
	c.commitLocked()
	return idx, nil
}

func (c *Cluster) joinWorkerLocked() (int, error) {
	idx := len(c.workers)
	shards, err := data.PartitionIID(c.cfg.Train, c.cfg.NW, joinSeed(c.cfg.Seed, idx))
	if err != nil {
		return 0, fmt.Errorf("core: join worker %d: shard data: %w", idx, err)
	}
	if err := c.addWorker(shards[idx%c.cfg.NW], nil, false); err != nil {
		return 0, fmt.Errorf("core: join worker %d: %w", idx, err)
	}
	return idx, nil
}

// JoinServer adds one honest server replica and returns its index. The
// replica bootstraps its model, optimizer and step counter from checkpoint:
// pass a reader holding v2 checkpoint bytes (SaveCheckpoint framing), or nil
// to snapshot the current primary live. Like RestoreServerCheckpoint, the
// bootstrap resets every worker's compression error-feedback residual — the
// residual belongs to the timeline the pulled gradients were computed on,
// not to the joiner's restored one.
func (c *Cluster) JoinServer(checkpoint io.Reader) (int, error) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	idx, err := c.joinServerLocked(checkpoint)
	if err != nil {
		return 0, err
	}
	c.commitLocked()
	return idx, nil
}

func (c *Cluster) joinServerLocked(checkpoint io.Reader) (int, error) {
	idx := len(c.servers)
	if checkpoint == nil {
		p, ok := c.primaryLocked()
		if !ok {
			return 0, fmt.Errorf("%w: join server %d: no live replica to bootstrap from", ErrConfig, idx)
		}
		var buf bytes.Buffer
		if err := c.servers[p].SaveCheckpoint(&buf); err != nil {
			return 0, fmt.Errorf("core: join server %d: snapshot primary: %w", idx, err)
		}
		checkpoint = &buf
	}
	r := c.buildRosterLocked() // not c.roster: a batch scale-up joins several before it commits
	peers := append(append([]string(nil), r.ServerAddrs...), "server-"+strconv.Itoa(idx))
	if err := c.addServer(r.WorkerAddrs, peers, nil, false, checkpoint); err != nil {
		return 0, fmt.Errorf("core: join server %d: %w", idx, err)
	}
	// The bootstrap rolled the joiner's timeline back to the checkpoint;
	// worker residuals reference the pre-join timeline.
	for i, active := range c.workerActive {
		if active {
			c.workers[i].ResetCompression()
		}
	}
	return idx, nil
}

// LeaveWorker removes worker i gracefully: the prospective roster is
// validated first (rejecting the departure — roster unchanged — if it would
// break the GAR floor or quorum requirement), then the worker is drained:
// it stops being a pull target from the next round on but keeps serving
// in-flight pulls, and its goroutines are reclaimed at Cluster.Close.
func (c *Cluster) LeaveWorker(i int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.deactivateWorkerLocked(i); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

func (c *Cluster) deactivateWorkerLocked(i int) error {
	if i < 0 || i >= len(c.workers) {
		return fmt.Errorf("%w: worker %d of %d", ErrConfig, i, len(c.workers))
	}
	if !c.workerActive[i] {
		return fmt.Errorf("%w: worker %d already left the roster", ErrConfig, i)
	}
	nw, fw, nps, fps := c.prospectiveLocked()
	nw--
	if c.workerByz[i] {
		fw--
	}
	if err := c.validateTransition(nw, fw, nps, fps); err != nil {
		return err
	}
	active := append([]bool(nil), c.workerActive...)
	active[i] = false
	c.workerActive = active
	return nil
}

// LeaveServer removes server replica i gracefully, with the same validate-
// then-drain contract as LeaveWorker.
func (c *Cluster) LeaveServer(i int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.deactivateServerLocked(i); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

func (c *Cluster) deactivateServerLocked(i int) error {
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("%w: server %d of %d", ErrConfig, i, len(c.servers))
	}
	if !c.serverActive[i] {
		return fmt.Errorf("%w: server %d already left the roster", ErrConfig, i)
	}
	nw, fw, nps, fps := c.prospectiveLocked()
	nps--
	if c.serverByz[i] {
		fps--
	}
	if err := c.validateTransition(nw, fw, nps, fps); err != nil {
		return err
	}
	active := append([]bool(nil), c.serverActive...)
	active[i] = false
	c.serverActive = active
	return nil
}

// DepartWorker records the crash-detected departure of worker i. Unlike
// LeaveWorker it requires failure-detector evidence — the transport reports
// the address crashed, or its sever epoch advanced past the registration
// baseline (a partition or link cut severed its connections) — and refuses
// to remove a node nothing has observed failing.
func (c *Cluster) DepartWorker(i int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if i < 0 || i >= len(c.workers) {
		return fmt.Errorf("%w: worker %d of %d", ErrConfig, i, len(c.workers))
	}
	if err := c.severEvidenceLocked(c.workerAddrs[i]); err != nil {
		return err
	}
	if err := c.deactivateWorkerLocked(i); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

// DepartServer is DepartWorker for server replica i.
func (c *Cluster) DepartServer(i int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("%w: server %d of %d", ErrConfig, i, len(c.servers))
	}
	if err := c.severEvidenceLocked(c.serverAddrs[i]); err != nil {
		return err
	}
	if err := c.deactivateServerLocked(i); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

func (c *Cluster) severEvidenceLocked(addr string) error {
	if c.net == nil {
		return fmt.Errorf("%w: no failure detector on this wiring (crash evidence needs the live transport); use the graceful leave",
			ErrConfig)
	}
	if c.net.Crashed(addr) {
		return nil
	}
	if c.net.SeverEpoch(addr) > c.severBase[addr] {
		return nil
	}
	return fmt.Errorf("%w: no failure evidence for %s (not crashed, sever epoch unchanged); use the graceful leave",
		ErrConfig, addr)
}

// ScaleWorkers applies a batch worker-count change in one roster epoch:
// delta > 0 joins that many honest workers, delta < 0 drains the
// highest-indexed active workers. The whole batch is validated as one
// transition; on rejection the roster is unchanged.
func (c *Cluster) ScaleWorkers(delta int) error {
	if delta == 0 {
		return nil
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if delta > 0 {
		for k := 0; k < delta; k++ {
			if _, err := c.joinWorkerLocked(); err != nil {
				return err
			}
		}
		c.commitLocked()
		return nil
	}
	victims, err := c.highestActive(c.workerActive, -delta, "worker")
	if err != nil {
		return err
	}
	nw, fw, nps, fps := c.prospectiveLocked()
	for _, i := range victims {
		nw--
		if c.workerByz[i] {
			fw--
		}
	}
	if err := c.validateTransition(nw, fw, nps, fps); err != nil {
		return err
	}
	active := append([]bool(nil), c.workerActive...)
	for _, i := range victims {
		active[i] = false
	}
	c.workerActive = active
	c.commitLocked()
	return nil
}

// ScaleServers is ScaleWorkers for server replicas; joins bootstrap from the
// current primary's live checkpoint.
func (c *Cluster) ScaleServers(delta int) error {
	if delta == 0 {
		return nil
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if delta > 0 {
		for k := 0; k < delta; k++ {
			if _, err := c.joinServerLocked(nil); err != nil {
				return err
			}
		}
		c.commitLocked()
		return nil
	}
	victims, err := c.highestActive(c.serverActive, -delta, "server")
	if err != nil {
		return err
	}
	nw, fw, nps, fps := c.prospectiveLocked()
	for _, i := range victims {
		nps--
		if c.serverByz[i] {
			fps--
		}
	}
	if err := c.validateTransition(nw, fw, nps, fps); err != nil {
		return err
	}
	active := append([]bool(nil), c.serverActive...)
	for _, i := range victims {
		active[i] = false
	}
	c.serverActive = active
	c.commitLocked()
	return nil
}

// highestActive returns the n highest-indexed active slots, erroring when
// fewer than n are active.
func (c *Cluster) highestActive(active []bool, n int, kind string) ([]int, error) {
	var out []int
	for i := len(active) - 1; i >= 0 && len(out) < n; i-- {
		if active[i] {
			out = append(out, i)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("%w: scale down by %d, only %d active %ss", ErrConfig, n, len(out), kind)
	}
	return out, nil
}

// RecoverServer clears a crash of server replica i and fully resets the
// replica's derived state — the published aggregated gradient and the
// reply memo — plus every active worker's compression
// error-feedback residual, the same derived-state contract checkpoint
// restore honours. Without the reset, the recovered replica would serve
// vectors from the pre-crash timeline and the residuals would replay
// corrections for updates the fleet has moved past. Recovery is a liveness
// event, not a membership transition: the replica never left the roster, so
// the epoch does not change.
func (c *Cluster) RecoverServer(i int) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("%w: server %d of %d", ErrConfig, i, len(c.servers))
	}
	if !c.serverActive[i] {
		return fmt.Errorf("%w: server %d departed; recovery is for roster members (rejoin via JoinServer)",
			ErrConfig, i)
	}
	addr := c.serverAddrs[i]
	if c.net != nil {
		c.net.Recover(addr)
	}
	c.crashed[i].Store(false)
	c.servers[i].ResetDerived()
	for j, active := range c.workerActive {
		if active {
			c.workers[j].ResetCompression()
		}
	}
	// Re-baseline the failure detector: the sever epoch advance caused by
	// the crash itself must not count as departure evidence later.
	if c.net != nil {
		c.severBase[addr] = c.net.SeverEpoch(addr)
	}
	return nil
}

// ModelSpread returns the maximum L2 distance between the model of the
// first live honest replica and every other live honest replica — the
// replica-divergence measure the join-convergence invariant bounds: a
// freshly bootstrapped joiner must end the run near the honest fleet's
// model, Byzantine replicas excluded. Zero when fewer than two live honest
// replicas exist.
func (c *Cluster) ModelSpread() float64 {
	c.memMu.RLock()
	var honest []*Server
	for i, active := range c.serverActive {
		if active && !c.serverByz[i] && !c.crashed[i].Load() {
			honest = append(honest, c.servers[i])
		}
	}
	c.memMu.RUnlock()
	if len(honest) < 2 {
		return 0
	}
	ref := honest[0].Params()
	var max float64
	for _, s := range honest[1:] {
		p := s.Params()
		var sum float64
		for d := range ref {
			diff := ref[d] - p[d]
			sum += diff * diff
		}
		if d := math.Sqrt(sum); d > max {
			max = d
		}
	}
	return max
}
