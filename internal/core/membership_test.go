package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"garfield/internal/attack"
	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// TestJoinWorkerExpandsRosterMidRun: a worker joins between two training
// stretches; the transition is one epoch, the joiner is honest, and the
// runner drives the widened fleet without losing a round.
func TestJoinWorkerExpandsRosterMidRun(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS = 1, 0
	c := newTestCluster(t, cfg)
	if _, err := c.RunSSMW(RunOptions{Iterations: 5}); err != nil {
		t.Fatal(err)
	}
	idx, err := c.JoinWorker()
	if err != nil {
		t.Fatal(err)
	}
	ro := c.Roster()
	if ro.Epoch != 1 {
		t.Fatalf("epoch after join = %d, want 1", ro.Epoch)
	}
	if ro.NW() != cfg.NW+1 || ro.Workers[ro.NW()-1] != idx {
		t.Fatalf("roster workers = %v, want %d ending in joiner %d", ro.Workers, cfg.NW+1, idx)
	}
	if ro.WorkersByz[ro.NW()-1] || ro.FW != cfg.FW {
		t.Fatalf("joiner must be honest: byz=%v fw=%d (declared %d)", ro.WorkersByz[ro.NW()-1], ro.FW, cfg.FW)
	}
	res, err := c.RunSSMW(RunOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 5 {
		t.Fatalf("post-join updates = %d, want 5", res.Updates)
	}
}

// TestLeaveWorkerValidatesResilienceFloor: a departure that would drop the
// fleet below the GAR's n >= g(f) floor (or the async q = n - f quorum) is
// rejected and leaves the roster unchanged; a departure with slack drains.
func TestLeaveWorkerValidatesResilienceFloor(t *testing.T) {
	cfg := baseConfig(t)
	// median at fw=1 needs n >= 3 and q = n - f >= 3: nw=4 has no slack.
	cfg.NW, cfg.FW = 4, 1
	cfg.NPS, cfg.FPS = 1, 0
	tight := newTestCluster(t, cfg)
	if err := tight.LeaveWorker(0); !errors.Is(err, ErrConfig) {
		t.Fatalf("leave at the floor: err = %v, want ErrConfig", err)
	}
	if ro := tight.Roster(); ro.Epoch != 0 || ro.NW() != 4 {
		t.Fatalf("rejected leave mutated the roster: epoch=%d nw=%d", ro.Epoch, ro.NW())
	}

	cfg = baseConfig(t)
	cfg.NPS, cfg.FPS = 1, 0
	c := newTestCluster(t, cfg)
	if err := c.LeaveWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := c.LeaveWorker(0); !errors.Is(err, ErrConfig) {
		t.Fatalf("double leave: err = %v, want ErrConfig", err)
	}
	ro := c.Roster()
	if ro.Epoch != 1 || ro.NW() != cfg.NW-1 || ro.Workers[0] != 1 {
		t.Fatalf("roster after drain = epoch %d workers %v", ro.Epoch, ro.Workers)
	}
	if res, err := c.RunSSMW(RunOptions{Iterations: 5}); err != nil || res.Updates != 5 {
		t.Fatalf("post-drain run: res=%+v err=%v", res, err)
	}
}

// TestJoinServerBootstrapsFromCheckpoint: a joining replica restores model,
// optimizer step and parameters from the v2 checkpoint — snapshotted live
// from the primary when no reader is given — and the widened replica set
// keeps training.
func TestJoinServerBootstrapsFromCheckpoint(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	if _, err := c.RunMSMW(RunOptions{Iterations: 5}); err != nil {
		t.Fatal(err)
	}
	idx, err := c.JoinServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	pNew, stepNew := c.Server(idx).Snapshot()
	p0, step0 := c.Server(0).Snapshot()
	if stepNew != step0 || !pNew.Equal(p0) {
		t.Fatalf("joiner state (step %d) differs from the primary checkpoint (step %d)", stepNew, step0)
	}
	if ro := c.Roster(); ro.Epoch != 1 || ro.NPS() != cfg.NPS+1 {
		t.Fatalf("roster after server join: epoch=%d nps=%d", ro.Epoch, ro.NPS())
	}

	// Explicit checkpoint bytes bootstrap the same way.
	var buf bytes.Buffer
	if err := c.Server(1).SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	p1, step1 := c.Server(1).Snapshot()
	idx2, err := c.JoinServer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, step2 := c.Server(idx2).Snapshot()
	if step2 != step1 || !p2.Equal(p1) {
		t.Fatal("explicit checkpoint reader did not bootstrap the joiner")
	}

	res, err := c.RunMSMW(RunOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 5 {
		t.Fatalf("post-join updates = %d, want 5", res.Updates)
	}
	if spread := c.ModelSpread(); spread > 1.0 {
		t.Fatalf("honest replica spread %v after joins, want near-zero", spread)
	}
}

// TestDepartRequiresFailureEvidence: crash-detected departure demands the
// failure detector's word — the transport marks the address crashed or its
// sever epoch advanced — while graceful leave stays available either way.
func TestDepartRequiresFailureEvidence(t *testing.T) {
	cfg := baseConfig(t)
	c := newTestCluster(t, cfg)
	if err := c.DepartWorker(2); !errors.Is(err, ErrConfig) {
		t.Fatalf("depart of a healthy worker: err = %v, want ErrConfig (no evidence)", err)
	}
	c.CrashWorker(2)
	if err := c.DepartWorker(2); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(cfg.NPS - 1)
	if err := c.DepartServer(cfg.NPS - 1); err != nil {
		t.Fatal(err)
	}
	ro := c.Roster()
	if ro.Epoch != 2 || ro.NW() != cfg.NW-1 || ro.NPS() != cfg.NPS-1 {
		t.Fatalf("roster after departures: epoch=%d nw=%d nps=%d", ro.Epoch, ro.NW(), ro.NPS())
	}
}

// TestScaleAppliesBatchInOneEpoch: a batch add/remove is one roster epoch,
// validated as a whole; negative scale drains the highest-indexed members
// and a batch that would strand the fleet is rejected atomically.
func TestScaleAppliesBatchInOneEpoch(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS = 1, 0
	c := newTestCluster(t, cfg)
	if err := c.ScaleWorkers(3); err != nil {
		t.Fatal(err)
	}
	if ro := c.Roster(); ro.Epoch != 1 || ro.NW() != cfg.NW+3 {
		t.Fatalf("after +3: epoch=%d nw=%d", ro.Epoch, ro.NW())
	}
	if err := c.ScaleWorkers(-3); err != nil {
		t.Fatal(err)
	}
	ro := c.Roster()
	if ro.Epoch != 2 || ro.NW() != cfg.NW {
		t.Fatalf("after -3: epoch=%d nw=%d", ro.Epoch, ro.NW())
	}
	if last := ro.Workers[ro.NW()-1]; last != cfg.NW-1 {
		t.Fatalf("scale down drained the wrong slots: workers = %v", ro.Workers)
	}
	if err := c.ScaleWorkers(-cfg.NW); !errors.Is(err, ErrConfig) {
		t.Fatalf("draining the whole fleet: err = %v, want ErrConfig", err)
	}
	if got := c.RosterEpoch(); got != 2 {
		t.Fatalf("rejected batch bumped the epoch to %d", got)
	}
}

// TestRecoverServerResetsDerivedState is the regression test of the full
// recovery contract: recovery clears the crash, drops the published
// aggregated gradient and the deterministic reply cache (state from the
// pre-crash timeline), and is a liveness event — the epoch must not move.
func TestRecoverServerResetsDerivedState(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Deterministic = true
	cfg.ServerAttack = attack.NewRandom(tensor.NewRNG(3), 1.0)
	c := newTestCluster(t, cfg)
	i := cfg.NPS - 1 // the declared-Byzantine replica carries the reply cache
	byz := c.Server(i)

	req := rpc.Request{Kind: rpc.KindGetModel, Step: 0}
	before := byz.Handle(req)
	if !before.OK {
		t.Fatal("Byzantine server should serve")
	}
	if again := byz.Handle(req); !again.Vec.Equal(before.Vec) {
		t.Fatal("deterministic reply cache not in effect")
	}
	byz.SetLatestAggrGrad(tensor.New(cfg.Arch.Dim()))

	c.CrashServer(i)
	if err := c.RecoverServer(i); err != nil {
		t.Fatal(err)
	}
	if got := c.RosterEpoch(); got != 0 {
		t.Fatalf("recovery bumped the membership epoch to %d; it is a liveness event", got)
	}
	after := byz.Handle(req)
	if !after.OK {
		t.Fatal("server should serve after recovery")
	}
	if after.Vec.Equal(before.Vec) {
		t.Fatal("pre-crash deterministic reply cache served after recovery")
	}
	if aggr := byz.Handle(rpc.Request{Kind: rpc.KindGetAggrGrad}); aggr.OK {
		t.Fatal("pre-crash aggregated gradient survived recovery")
	}

	if err := c.LeaveServer(i); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverServer(i); !errors.Is(err, ErrConfig) {
		t.Fatalf("recover of a departed replica: err = %v, want ErrConfig", err)
	}
}

// TestAsyncRebindsFetchersAcrossEpochs drives the live bounded-staleness
// engine through concurrent membership transitions: the per-replica fetcher
// set must rebind to the new roster (spawning for joiners, cancelling for
// leavers) without losing a single round. Run under -race this also checks
// the roster snapshot discipline of the async loop.
func TestAsyncRebindsFetchersAcrossEpochs(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NPS, cfg.FPS = 1, 0
	c := newTestCluster(t, cfg)
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := c.RunAsyncSSMW(RunOptions{Iterations: 150})
		ch <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := c.JoinWorker(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.LeaveWorker(1); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Updates != 150 {
		t.Fatalf("updates = %d, want 150 (churn must not cost rounds)", got.res.Updates)
	}
	if epoch := c.RosterEpoch(); epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
}

// TestRosterSnapshotIsPerEpoch: Roster hands out one snapshot per epoch —
// the same slices on every call, HonestServers included, with nothing built
// per call — and a snapshot taken before a transition is unchanged after it
// while a new call reflects the transition.
func TestRosterSnapshotIsPerEpoch(t *testing.T) {
	c := newTestCluster(t, baseConfig(t)) // nw=7 fw=1, nps=4 fps=1
	type frozen struct {
		ro      Roster
		workers []int
		addrs   []string
		servers []int
		honest  []int
	}
	freeze := func() frozen {
		ro := c.Roster()
		return frozen{
			ro:      ro,
			workers: append([]int(nil), ro.Workers...),
			addrs:   append([]string(nil), ro.WorkerAddrs...),
			servers: append([]int(nil), ro.Servers...),
			honest:  append([]int(nil), ro.HonestServers()...),
		}
	}
	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	check := func(what string, f frozen) {
		t.Helper()
		if !same(f.ro.Workers, f.workers) || !same(f.ro.Servers, f.servers) || !same(f.ro.HonestServers(), f.honest) {
			t.Fatalf("a snapshot taken before %s changed under it: workers %v servers %v honest %v",
				what, f.ro.Workers, f.ro.Servers, f.ro.HonestServers())
		}
		for i, a := range f.addrs {
			if f.ro.WorkerAddrs[i] != a {
				t.Fatalf("a snapshot taken before %s changed under it: worker address %d", what, i)
			}
		}
	}

	before := freeze()
	if !same(before.honest, []int{0, 1, 2}) {
		t.Fatalf("honest servers = %v, want [0 1 2]", before.honest)
	}
	again := c.Roster()
	if &again.Workers[0] != &before.ro.Workers[0] || &again.HonestServers()[0] != &before.ro.HonestServers()[0] {
		t.Fatal("two Roster calls within one epoch built two snapshots")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = c.Roster().HonestServers() }); allocs != 0 {
		t.Fatalf("Roster + HonestServers allocate %v objects per call, want 0", allocs)
	}

	idx, err := c.JoinWorker()
	if err != nil {
		t.Fatal(err)
	}
	check("JoinWorker", before)
	joined := freeze()
	if joined.ro.Epoch != 1 || joined.ro.NW() != 8 || joined.workers[7] != idx {
		t.Fatalf("after JoinWorker: epoch %d workers %v", joined.ro.Epoch, joined.workers)
	}

	if err := c.LeaveServer(1); err != nil {
		t.Fatal(err)
	}
	check("LeaveServer", before)
	check("LeaveServer", joined)
	left := freeze()
	if left.ro.Epoch != 2 || !same(left.servers, []int{0, 2, 3}) || !same(left.honest, []int{0, 2}) {
		t.Fatalf("after LeaveServer(1): epoch %d servers %v honest %v", left.ro.Epoch, left.servers, left.honest)
	}

	if err := c.ScaleWorkers(-2); err != nil {
		t.Fatal(err)
	}
	check("ScaleWorkers", joined)
	check("ScaleWorkers", left)
	if ro := c.Roster(); ro.Epoch != 3 || ro.NW() != 6 || !same(ro.Workers, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("after ScaleWorkers(-2): epoch %d workers %v", ro.Epoch, ro.Workers)
	}
	// A rejected transition leaves the snapshot alone.
	if err := c.ScaleWorkers(-6); err == nil {
		t.Fatal("scaling the fleet down to no workers was accepted")
	}
	if ro := c.Roster(); ro.Epoch != 3 || ro.NW() != 6 {
		t.Fatalf("a rejected scale-down changed the roster: epoch %d nw %d", ro.Epoch, ro.NW())
	}
}
