// Package scenario is the declarative deployment engine: it turns the
// paper's evaluation matrix — topologies (SSMW, MSMW, decentralized and the
// baselines) crossed with GARs, attacks and fault conditions — into
// serializable specifications instead of hand-written main functions.
//
// A Spec fully describes one cell of that matrix: cluster shape (n/f on both
// the worker and server side), the GAR, the Byzantine behaviours, the
// learning task (model, synthetic dataset, batch size, learning-rate
// schedule), a network-fault schedule injected through transport.Faulty, and
// the seeds that make the whole run reproducible. Specs round-trip through
// JSON, so scenarios can live in files, flags or version control rather than
// in Go code.
//
// The package provides three layers on top of Spec:
//
//   - a registry of named presets reproducing the paper's headline
//     configurations (registry.go);
//   - a runner that materializes a Spec into an in-process core.Cluster and
//     drives the right protocol through its fault schedule (run.go);
//   - a sweep runner that expands a scenario Matrix (topologies x GARs x
//     attacks x f values) and executes the cells in parallel with
//     deterministic per-cell seeding, emitting CSV and JSON artifacts
//     (sweep.go).
//
// cmd/garfield-scenarios is the CLI front end; the root garfield package
// re-exports the entry points.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"garfield/internal/attack"
	"garfield/internal/compress"
	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/shard"
)

// ErrSpec reports an invalid scenario specification.
var ErrSpec = errors.New("scenario: invalid spec")

// Topology names accepted by Spec.Topology. They are exactly the protocol
// runners of internal/core: the three applications of the paper plus its
// three baselines.
const (
	// TopoVanilla is the fault-intolerant single-server baseline (plain
	// averaging over all workers).
	TopoVanilla = "vanilla"
	// TopoSSMW is Listing 1: single trusted server, multiple workers,
	// robust gradient aggregation.
	TopoSSMW = "ssmw"
	// TopoAggregaThor is SSMW fixed to Multi-Krum, the AggregaThor
	// comparison baseline.
	TopoAggregaThor = "aggregathor"
	// TopoCrashTolerant is the replicated-server strawman that survives
	// crashes but not Byzantine behaviour.
	TopoCrashTolerant = "crash-tolerant"
	// TopoMSMW is Listing 2: replicated Byzantine-resilient servers.
	TopoMSMW = "msmw"
	// TopoDecentralized is Listing 3: peer-to-peer training, every node
	// a server+worker pair.
	TopoDecentralized = "decentralized"
	// TopoSharded partitions the aggregation itself across a crash-only
	// (fps = 0) server tier: coordinate-wise GARs shard the coordinate
	// space exactly, selection GARs run a two-level hierarchy (see
	// internal/shard and core.RunSharded). Requires Shards >= 1.
	TopoSharded = "sharded"
)

// Topologies returns the recognized topology names in a stable order.
func Topologies() []string {
	return []string{TopoVanilla, TopoSSMW, TopoAggregaThor,
		TopoCrashTolerant, TopoMSMW, TopoDecentralized, TopoSharded}
}

// Engine names accepted by Spec.Engine.
const (
	// EngineLive (the default) runs the cluster over the in-memory
	// transport: real RPC frames, one serving goroutine per node, wall
	// time.
	EngineLive = "live"
	// EngineSim runs the cluster on the discrete-event simulator
	// (internal/sim): direct handler dispatch under a virtual clock, so
	// thousands of nodes fit in one process and every timestamp is
	// deterministic. See validateEngine for what it requires.
	EngineSim = "sim"
)

// Engines returns the recognized engine names in a stable order.
func Engines() []string { return []string{EngineLive, EngineSim} }

// Model kinds accepted by ModelSpec.Kind.
const (
	ModelLinear   = "linear"
	ModelMLP      = "mlp"
	ModelCNN      = "cnn"
	ModelMNISTCNN = "mnistcnn"
)

// ModelSpec declaratively describes a model architecture.
type ModelSpec struct {
	// Kind selects the architecture: linear, mlp, cnn or mnistcnn.
	Kind string `json:"kind"`
	// In is the flattened input dimension (linear, mlp).
	In int `json:"in,omitempty"`
	// Hidden is the hidden-layer width (mlp).
	Hidden int `json:"hidden,omitempty"`
	// Classes is the number of output classes (all kinds except mnistcnn,
	// which is fixed at 10).
	Classes int `json:"classes,omitempty"`
	// H, W, C describe the input image (cnn).
	H int `json:"h,omitempty"`
	W int `json:"w,omitempty"`
	C int `json:"c,omitempty"`
	// Kernel and Filters describe the convolution (cnn).
	Kernel  int `json:"kernel,omitempty"`
	Filters int `json:"filters,omitempty"`
}

// inputDim returns the flattened input dimension the model expects, or 0
// when the kind is unknown.
func (m ModelSpec) inputDim() int {
	switch m.Kind {
	case ModelLinear, ModelMLP:
		return m.In
	case ModelCNN:
		return m.H * m.W * m.C
	case ModelMNISTCNN:
		return 28 * 28
	}
	return 0
}

// DatasetSpec mirrors data.SyntheticSpec with JSON tags: a deterministic
// Gaussian-mixture stand-in for the paper's datasets.
type DatasetSpec struct {
	// Name labels the dataset.
	Name string `json:"name,omitempty"`
	// Dim is the flattened feature dimension.
	Dim int `json:"dim"`
	// Classes is the number of mixture components / labels.
	Classes int `json:"classes"`
	// Train and Test are the example counts of each split.
	Train int `json:"train"`
	Test  int `json:"test"`
	// Separation scales the distance between class means.
	Separation float64 `json:"separation"`
	// Noise is the within-class standard deviation.
	Noise float64 `json:"noise"`
	// Seed makes generation deterministic.
	Seed uint64 `json:"seed"`
}

// synthetic converts the spec to the data package's generation input.
func (d DatasetSpec) synthetic() data.SyntheticSpec {
	return data.SyntheticSpec{
		Name: d.Name, Dim: d.Dim, Classes: d.Classes,
		Train: d.Train, Test: d.Test,
		Separation: d.Separation, Noise: d.Noise, Seed: d.Seed,
	}
}

// Learning-rate schedule kinds accepted by LRSpec.Kind.
const (
	LRConstant     = "constant"
	LRInverseDecay = "inverse-decay"
	LRStepDecay    = "step"
)

// LRSpec declaratively describes a learning-rate schedule. The zero value
// selects the core default (constant 0.1).
type LRSpec struct {
	// Kind selects the schedule: constant, inverse-decay or step.
	Kind string `json:"kind,omitempty"`
	// Base is gamma_0.
	Base float64 `json:"base,omitempty"`
	// HalfLife is the inverse-decay half life.
	HalfLife float64 `json:"half_life,omitempty"`
	// Factor and Every parameterize step decay.
	Factor float64 `json:"factor,omitempty"`
	Every  int     `json:"every,omitempty"`
}

// AttackSpec declaratively describes a Byzantine behaviour. The zero value
// (empty name) means honest. Parameter fields left zero take the attack
// package's paper defaults (random scale 1.0, reversed factor -100,
// little-is-enough z 1.5, fall-of-empires epsilon 1.1).
type AttackSpec struct {
	// Name is an attack name accepted by attack.New, or "" for honest.
	Name string `json:"name,omitempty"`
	// Seed seeds stochastic attacks (random). Seed 0 on a stochastic
	// server attack derives its stream by splitting the worker attack's
	// generator — the construction the paper's attack experiments use —
	// and falls back to the attack package's fixed default stream when
	// the worker attack is not stochastic either.
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the random attack's noise scale.
	Scale float64 `json:"scale,omitempty"`
	// Factor is the reversed attack's multiplier.
	Factor float64 `json:"factor,omitempty"`
	// Z is the little-is-enough shift in standard deviations.
	Z float64 `json:"z,omitempty"`
	// Epsilon is the fall-of-empires scaling.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// enabled reports whether the spec names an actual behaviour.
func (a AttackSpec) enabled() bool {
	return a.Name != "" && !strings.EqualFold(a.Name, attack.NameNone)
}

// stochastic reports whether the named attack consumes randomness.
func (a AttackSpec) stochastic() bool {
	return strings.EqualFold(a.Name, attack.NameRandom)
}

// Fault kinds accepted by Fault.Kind.
const (
	// FaultCrashServer crashes server replica Node: subsequent dials to
	// it fail (transport.Faulty severs its links).
	FaultCrashServer = "crash-server"
	// FaultRecoverServer restores a crashed server replica Node: its links
	// come back and (on the sharded topology) the replica catches up to
	// the fleet's model before its next round.
	FaultRecoverServer = "recover-server"
	// FaultCrashWorker crashes worker Node.
	FaultCrashWorker = "crash-worker"
	// FaultDelayWorker makes worker Node a straggler: every dial to it
	// waits DelayMS first (a slow link; pooled clients pay it on re-dial).
	FaultDelayWorker = "delay-worker"
	// FaultSlowWorker makes worker Node serve every request DelayMS late
	// (a slow node: the delay applies per request, even over persistent
	// connections — the steady straggler of the async experiments).
	FaultSlowWorker = "slow-worker"

	// FaultPartition splits the network between GroupA and GroupB (node
	// names like "server-0", "worker-3"): dials across the cut are refused
	// and established crossing connections severed, until a heal fault.
	FaultPartition = "partition"
	// FaultHeal removes every partition injected so far.
	FaultHeal = "heal"
	// FaultCorruptLink installs a seeded chaos program on the target
	// node's links that flips one byte of each framed message with
	// probability Prob (default 1). The RPC checksum layer detects and
	// rejects the mangled payloads, so the node looks faulty, not subtly
	// poisonous.
	FaultCorruptLink = "corrupt-link"
	// FaultReorderLink installs a seeded chaos program that holds back
	// each framed message with probability Prob (default 0.5), delivering
	// it after its successor — adjacent message swaps on the link.
	FaultReorderLink = "reorder-link"
	// FaultByzServer flips the ByzantineServer wrapper of a declared-
	// Byzantine replica (index in [nps-fps, nps)) to Mode: a replica that
	// served honestly turns adversarial mid-run. See core.ByzModes.
	FaultByzServer = "byz-server"

	// FaultJoin adds one honest node to the roster (Target side: "worker",
	// the default, or "server") — a membership epoch transition. A joining
	// server bootstraps model, optimizer and step from the current
	// primary's checkpoint; a joining worker gets a deterministic shard.
	FaultJoin = "join"
	// FaultLeave gracefully drains node Node of the Target side out of the
	// roster. The transition is validated against the GAR's n >= g(f)
	// floor and the async q = n - f requirement; a schedule that would
	// break them is rejected.
	FaultLeave = "leave"
	// FaultScale applies a batch membership change in one epoch: Delta > 0
	// joins that many nodes on the Target side, Delta < 0 drains the
	// highest-indexed active ones.
	FaultScale = "scale"
)

// Fault is one entry of a network-fault schedule: after After iterations
// have completed, the fault is injected through the cluster's
// transport.Faulty layer (or, for byz-server, its ByzantineServer wrapper)
// and training resumes for the remaining iterations.
type Fault struct {
	// After is the number of completed iterations before injection; it
	// must lie in [1, Iterations-1].
	After int `json:"after"`
	// Kind is one of the Fault* kind constants.
	Kind string `json:"kind"`
	// Node is the target node index (server replica or worker); unused by
	// partition and heal.
	Node int `json:"node"`
	// DelayMS is the injected per-pull delay for delay-worker/slow-worker.
	DelayMS int `json:"delay_ms,omitempty"`
	// Prob is the per-message probability of corrupt-link/reorder-link
	// (0 selects the kind's default).
	Prob float64 `json:"prob,omitempty"`
	// Mode is the byz-server behaviour to flip to (core.ByzModes).
	Mode string `json:"mode,omitempty"`
	// Target says which side corrupt-link/reorder-link's and the membership
	// faults' (join/leave/scale) Node indexes: "worker" (the default) or
	// "server".
	Target string `json:"target,omitempty"`
	// Delta is the scale fault's batch size: positive joins, negative
	// drains.
	Delta int `json:"delta,omitempty"`
	// GroupA and GroupB are the two sides of a partition, as node names
	// ("server-<i>", "worker-<i>").
	GroupA []string `json:"group_a,omitempty"`
	GroupB []string `json:"group_b,omitempty"`
}

// Spec fully describes one scenario: a deployment topology, the learning
// task, the adversary, a fault schedule and the run length. It is the
// serializable counterpart of core.Config + core.RunOptions.
type Spec struct {
	// Name identifies the scenario (registry key, sweep cell label).
	Name string `json:"name,omitempty"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`

	// Topology selects the protocol runner; see Topologies.
	Topology string `json:"topology"`

	// NW and FW are total and Byzantine worker counts.
	NW int `json:"nw"`
	FW int `json:"fw,omitempty"`
	// NPS and FPS are total and Byzantine server-replica counts. The
	// decentralized topology ignores them (every node is a server+worker
	// pair, so nps is forced to nw). The sharded topology requires
	// FPS = 0: its server tier is crash-only.
	NPS int `json:"nps,omitempty"`
	FPS int `json:"fps,omitempty"`
	// Shards is the sharded topology's partition count: coordinate-wise
	// rules split the coordinate space into that many ranges, selection
	// rules split the workers into that many groups. Required (>= 1) with
	// the sharded topology, rejected on every other.
	Shards int `json:"shards,omitempty"`

	// Rule is the gradient GAR; ModelRule the server-model GAR (MSMW,
	// decentralized), defaulting to median.
	Rule      string `json:"rule"`
	ModelRule string `json:"model_rule,omitempty"`
	// SyncQuorum collects from all n workers/peers instead of n - f.
	SyncQuorum bool `json:"sync_quorum,omitempty"`
	// Async selects the bounded-staleness execution engine instead of the
	// lockstep runner (ssmw and msmw topologies): servers aggregate as
	// soon as q = nw - fw sufficiently fresh gradients are queued, so
	// stragglers cost freshness rather than progress. Incompatible with
	// SyncQuorum; combined with Deterministic it runs the seeded
	// single-threaded replay (ssmw only).
	Async bool `json:"async,omitempty"`
	// StalenessBound is the async engine's tau: gradients computed more
	// than that many steps ago are discarded. Following the config
	// convention, 0 selects the core default (3) rather than "fresh only";
	// the smallest expressible bound is 1.
	StalenessBound int `json:"staleness_bound,omitempty"`
	// StalenessDamping scales an accepted stale gradient by
	// damping^staleness. 0 selects the core default (0.5) rather than
	// zero-weighting; to effectively silence stale gradients use a tiny
	// positive value, and 1 disables damping.
	StalenessDamping float64 `json:"staleness_damping,omitempty"`
	// ModelAggEvery spaces MSMW model contraction to every k iterations.
	ModelAggEvery int `json:"model_agg_every,omitempty"`
	// NonIID shards by label and enables the decentralized contract step;
	// ContractSteps is the number of contract rounds per iteration.
	NonIID        bool `json:"non_iid,omitempty"`
	ContractSteps int  `json:"contract_steps,omitempty"`

	// WorkerAttack and ServerAttack are the Byzantine behaviours of the
	// last FW workers / last FPS servers.
	WorkerAttack AttackSpec `json:"worker_attack,omitempty"`
	ServerAttack AttackSpec `json:"server_attack,omitempty"`
	// LiveWorkerAttack and LiveServerAttack override the declarative
	// attack specs with caller-constructed instances — the escape hatch
	// for custom adversaries or stateful attack objects deliberately
	// shared across several runs. They do not serialize; a spec loaded
	// from JSON always uses the declarative fields.
	LiveWorkerAttack attack.Attack `json:"-"`
	LiveServerAttack attack.Attack `json:"-"`
	// AttackSelfPeers gives Byzantine workers that many self-estimated
	// honest gradients per request (collusion attacks).
	AttackSelfPeers int `json:"attack_self_peers,omitempty"`

	// ServerByzMode selects the ByzantineServer wrapper behaviour of the
	// declared-Byzantine replicas from iteration 0 (core.ByzModes:
	// honest, random, reversed, stale, equivocate). Empty starts them
	// honest; a byz-server fault can still flip them mid-run.
	ServerByzMode string `json:"server_byz_mode,omitempty"`
	// ServerByzScale is the noise scale of the random/equivocate modes
	// (0 selects the core default).
	ServerByzScale float64 `json:"server_byz_scale,omitempty"`

	// Compression names the gradient codec workers apply to their pull
	// replies: "" or "fp64" (passthrough), "fp16", "int8", "topk" — see
	// internal/compress. TopK is the coordinate budget of the "topk" codec
	// (required with it, rejected otherwise); top-k workers carry an
	// error-feedback residual across steps.
	Compression string `json:"compression,omitempty"`
	TopK        int    `json:"top_k,omitempty"`

	// Model, Dataset and BatchSize describe the learning task.
	Model     ModelSpec   `json:"model"`
	Dataset   DatasetSpec `json:"dataset"`
	BatchSize int         `json:"batch_size"`
	// LR is the learning-rate schedule (zero value: constant 0.1).
	LR LRSpec `json:"lr,omitempty"`
	// Momentum is server-side momentum; WorkerMomentum worker-side.
	Momentum       float64 `json:"momentum,omitempty"`
	WorkerMomentum float64 `json:"worker_momentum,omitempty"`

	// Deterministic makes repeated runs bit-identical at the same seed:
	// workers serve one cached gradient estimate per step, servers
	// aggregate pulled vectors in canonical peer order, and rounds run
	// sequentially in replica order (see core.Config). Combine
	// with SyncQuorum on replicated topologies — a q < n quorum's
	// responding subset is inherently timing-dependent.
	Deterministic bool `json:"deterministic,omitempty"`

	// Engine selects the execution substrate: "" or "live" runs over the
	// in-memory transport, "sim" over the discrete-event simulator (see
	// Engines, and validateEngine for the sim engine's requirements).
	Engine string `json:"engine,omitempty"`
	// SimLatencyMS, SimJitterMS and SimBandwidthMBps parameterize the
	// simulated network: base one-way link latency, per-message uniform
	// jitter bound, and per-link bandwidth charging payload serialization
	// time (0: infinite). All three require Engine "sim"; all-zero
	// simulates an instantaneous network, which is the configuration the
	// sim-vs-live equivalence goldens pin.
	SimLatencyMS     float64 `json:"sim_latency_ms,omitempty"`
	SimJitterMS      float64 `json:"sim_jitter_ms,omitempty"`
	SimBandwidthMBps float64 `json:"sim_bandwidth_mbps,omitempty"`

	// Seed drives all cluster randomness (sharding, init, sampling).
	Seed uint64 `json:"seed"`
	// Iterations and AccEvery tune the run (accuracy is measured every
	// AccEvery iterations and at the end; 0 = final only). A fault
	// schedule splits the run into segments; the AccEvery cadence
	// restarts at each segment boundary.
	Iterations int `json:"iterations"`
	AccEvery   int `json:"acc_every,omitempty"`
	// PullTimeoutMS bounds each pull round (0: core default 30s).
	PullTimeoutMS int `json:"pull_timeout_ms,omitempty"`

	// Faults is the network-fault schedule, applied in After order.
	Faults []Fault `json:"faults,omitempty"`
}

// clone returns a deep copy of the spec (the only reference field is the
// fault schedule).
func (sp Spec) clone() Spec {
	out := sp
	if len(sp.Faults) > 0 {
		out.Faults = append([]Fault(nil), sp.Faults...)
	}
	return out
}

// gradShape returns the (q, f) pair the topology's gradient aggregation
// runs with — the shape Validate checks the GAR's resilience requirement
// against.
func (sp Spec) gradShape() (q, f int) {
	switch sp.Topology {
	case TopoVanilla, TopoCrashTolerant:
		return sp.NW, 0
	case TopoSSMW, TopoAggregaThor:
		if sp.Async {
			return sp.NW - sp.FW, sp.FW // async collects q = n - f
		}
		return sp.NW, sp.FW
	case TopoSharded:
		if sp.SyncQuorum {
			return sp.NW, sp.FW
		}
		return sp.NW - sp.FW, sp.FW
	default: // msmw, decentralized
		if sp.SyncQuorum && !sp.Async {
			return sp.NW, sp.FW
		}
		return sp.NW - sp.FW, sp.FW
	}
}

// Validate checks the spec without materializing it: topology, cluster
// shape, GAR resilience requirements for the shape the topology will
// aggregate with, attack names, task dimensions and the fault schedule.
func (sp Spec) Validate() error {
	switch sp.Topology {
	case TopoVanilla, TopoSSMW, TopoAggregaThor, TopoCrashTolerant,
		TopoMSMW, TopoDecentralized, TopoSharded:
	case "":
		return fmt.Errorf("%w: topology is required (one of %v)", ErrSpec, Topologies())
	default:
		return fmt.Errorf("%w: unknown topology %q (want one of %v)", ErrSpec, sp.Topology, Topologies())
	}
	if sp.NW < 1 {
		return fmt.Errorf("%w: nw=%d", ErrSpec, sp.NW)
	}
	if sp.FW < 0 || sp.FW >= sp.NW {
		return fmt.Errorf("%w: fw=%d of nw=%d", ErrSpec, sp.FW, sp.NW)
	}
	nps := sp.NPS
	if sp.Topology == TopoDecentralized {
		nps = sp.NW
	}
	if sp.FPS < 0 || (nps > 0 && sp.FPS >= nps) {
		return fmt.Errorf("%w: fps=%d of nps=%d", ErrSpec, sp.FPS, nps)
	}
	if sp.Topology == TopoMSMW && nps < 2 {
		return fmt.Errorf("%w: msmw needs nps >= 2, got %d", ErrSpec, nps)
	}
	if sp.Topology == TopoDecentralized && sp.NonIID && sp.SyncQuorum && sp.FW > 0 {
		return fmt.Errorf("%w: decentralized non_iid contract steps with sync_quorum need fw=0, got %d: "+
			"declared-Byzantine nodes never publish an aggregated gradient, so the q = n contract pull cannot complete",
			ErrSpec, sp.FW)
	}
	if sp.Topology == TopoSharded {
		if sp.Shards < 1 {
			return fmt.Errorf("%w: sharded topology needs shards >= 1, got %d", ErrSpec, sp.Shards)
		}
		if sp.FPS != 0 {
			return fmt.Errorf("%w: sharded runs a crash-only server tier (fps must be 0, got %d)", ErrSpec, sp.FPS)
		}
	} else if sp.Shards != 0 {
		return fmt.Errorf("%w: shards=%d requires the sharded topology (got %q)", ErrSpec, sp.Shards, sp.Topology)
	}
	if sp.BatchSize < 1 {
		return fmt.Errorf("%w: batch_size=%d", ErrSpec, sp.BatchSize)
	}
	if sp.Iterations < 1 {
		return fmt.Errorf("%w: iterations=%d", ErrSpec, sp.Iterations)
	}
	if sp.AccEvery < 0 {
		return fmt.Errorf("%w: acc_every=%d", ErrSpec, sp.AccEvery)
	}
	if err := sp.validateAsync(); err != nil {
		return err
	}
	if err := sp.validateEngine(); err != nil {
		return err
	}
	if err := sp.validateCompression(); err != nil {
		return err
	}

	// GAR requirement for the shape this topology aggregates gradients
	// with; surfaces gar.ErrUnknownRule and gar.ErrRequirement (the
	// paper's n >= g(f) preconditions).
	if sp.Rule == "" {
		return fmt.Errorf("%w: rule is required (one of %v)", ErrSpec, gar.Names())
	}
	rule := sp.Rule
	if sp.Topology == TopoAggregaThor {
		rule = gar.NameMultiKrum
	}
	if sp.Topology == TopoVanilla || sp.Topology == TopoCrashTolerant {
		rule = gar.NameAverage
	}
	q, f := sp.gradShape()
	if sp.Topology == TopoSharded && !gar.CoordinateWise(rule) {
		// A selection rule shards hierarchically: the floor that matters is
		// per worker group plus the crash-only root round, not the global
		// (q, f) shape — shard.NewHierarchical checks exactly those.
		if _, err := shard.NewHierarchical(rule, sp.NW, sp.FW, sp.Shards); err != nil {
			return fmt.Errorf("%w: rule %q over %d shard groups (nw=%d, fw=%d): %v",
				ErrSpec, rule, sp.Shards, sp.NW, sp.FW, err)
		}
	} else if _, err := gar.New(rule, q, f); err != nil {
		return fmt.Errorf("%w: rule %q with (q=%d, f=%d): %v", ErrSpec, rule, q, f, err)
	}
	if sp.Topology == TopoMSMW || sp.Topology == TopoDecentralized {
		modelRule := sp.ModelRule
		if modelRule == "" {
			modelRule = gar.NameMedian
		}
		qps, fps := nps-sp.FPS, sp.FPS
		if sp.Topology == TopoDecentralized {
			qps, fps = sp.NW-sp.FW, sp.FW
			if sp.SyncQuorum {
				qps = sp.NW
			}
		} else if sp.SyncQuorum {
			qps = nps
		}
		if _, err := gar.New(modelRule, qps, fps); err != nil {
			return fmt.Errorf("%w: model_rule %q with (q=%d, f=%d): %v", ErrSpec, modelRule, qps, fps, err)
		}
	}

	for _, a := range []AttackSpec{sp.WorkerAttack, sp.ServerAttack} {
		if !a.enabled() {
			continue
		}
		if _, err := attack.New(a.Name, nil); err != nil {
			return fmt.Errorf("%w: %v", ErrSpec, err)
		}
	}
	if sp.ServerByzMode != "" {
		if !core.ValidByzMode(sp.ServerByzMode) {
			return fmt.Errorf("%w: unknown server_byz_mode %q (want one of %v)",
				ErrSpec, sp.ServerByzMode, core.ByzModes())
		}
		if sp.ServerByzMode != core.ByzModeHonest && sp.FPS < 1 {
			return fmt.Errorf("%w: server_byz_mode %q needs fps >= 1 declared Byzantine servers",
				ErrSpec, sp.ServerByzMode)
		}
	}

	if err := sp.validateTask(); err != nil {
		return err
	}
	return sp.validateFaults(nps)
}

// validateAsync checks the bounded-staleness engine's constraints: it backs
// the ssmw and msmw topologies, its quorum is inherently q = n - f
// (SyncQuorum contradicts it), and the seeded deterministic replay exists
// for the single-server topology only.
func (sp Spec) validateAsync() error {
	if !sp.Async {
		if sp.StalenessBound != 0 || sp.StalenessDamping != 0 {
			return fmt.Errorf("%w: staleness_bound/staleness_damping require async", ErrSpec)
		}
		return nil
	}
	if sp.Topology != TopoSSMW && sp.Topology != TopoMSMW {
		return fmt.Errorf("%w: async supports topologies %q and %q, not %q",
			ErrSpec, TopoSSMW, TopoMSMW, sp.Topology)
	}
	if sp.SyncQuorum {
		return fmt.Errorf("%w: async collects q = n - f and contradicts sync_quorum", ErrSpec)
	}
	if sp.Deterministic && sp.Topology != TopoSSMW {
		return fmt.Errorf("%w: deterministic async replay supports %q only", ErrSpec, TopoSSMW)
	}
	if sp.StalenessBound < 0 {
		return fmt.Errorf("%w: staleness_bound=%d", ErrSpec, sp.StalenessBound)
	}
	if sp.StalenessDamping < 0 || sp.StalenessDamping > 1 {
		return fmt.Errorf("%w: staleness_damping=%v not in [0, 1]", ErrSpec, sp.StalenessDamping)
	}
	return nil
}

// validateEngine checks the execution-engine selection. The simulator runs
// every topology, in the sequential nesting of the round scheduler only
// (ARCHITECTURE.md, "Executing a round"): it requires Deterministic, because
// goroutine-per-replica stages would interleave on one event queue in
// scheduler order. It excludes fault schedules — faults inject through the
// live fault-injecting transport, which a simulated cluster does not have.
// The latency knobs in turn require the sim engine: on the live transport
// they would silently do nothing.
func (sp Spec) validateEngine() error {
	switch sp.Engine {
	case "", EngineLive:
		if sp.SimLatencyMS != 0 || sp.SimJitterMS != 0 || sp.SimBandwidthMBps != 0 {
			return fmt.Errorf("%w: sim_latency_ms/sim_jitter_ms/sim_bandwidth_mbps require engine %q",
				ErrSpec, EngineSim)
		}
		return nil
	case EngineSim:
	default:
		return fmt.Errorf("%w: unknown engine %q (want one of %v)", ErrSpec, sp.Engine, Engines())
	}
	if !sp.Deterministic {
		return fmt.Errorf("%w: engine %q requires deterministic mode", ErrSpec, EngineSim)
	}
	if len(sp.Faults) > 0 {
		return fmt.Errorf("%w: engine %q does not support fault schedules", ErrSpec, EngineSim)
	}
	if sp.SimLatencyMS < 0 || sp.SimJitterMS < 0 || sp.SimBandwidthMBps < 0 {
		return fmt.Errorf("%w: negative sim latency/jitter/bandwidth", ErrSpec)
	}
	return nil
}

// validateCompression checks the gradient-codec knobs: a known codec name,
// and a top-k budget exactly when the top-k codec asks for one.
func (sp Spec) validateCompression() error {
	enc, err := compress.Parse(sp.Compression)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if enc == compress.EncTopK && sp.TopK < 1 {
		return fmt.Errorf("%w: compression %q needs top_k >= 1, got %d", ErrSpec, sp.Compression, sp.TopK)
	}
	if enc != compress.EncTopK && sp.TopK != 0 {
		return fmt.Errorf("%w: top_k=%d requires compression \"topk\" (got %q)", ErrSpec, sp.TopK, sp.Compression)
	}
	return nil
}

func (sp Spec) validateTask() error {
	switch sp.Model.Kind {
	case ModelLinear, ModelMLP, ModelCNN, ModelMNISTCNN:
	case "":
		return fmt.Errorf("%w: model kind is required (linear, mlp, cnn, mnistcnn)", ErrSpec)
	default:
		return fmt.Errorf("%w: unknown model kind %q", ErrSpec, sp.Model.Kind)
	}
	d := sp.Dataset
	if d.Dim <= 0 || d.Classes <= 0 || d.Train <= 0 || d.Test <= 0 {
		return fmt.Errorf("%w: dataset needs positive dim/classes/train/test, got %+v", ErrSpec, d)
	}
	if in := sp.Model.inputDim(); in != 0 && in != d.Dim {
		return fmt.Errorf("%w: model input dim %d != dataset dim %d", ErrSpec, in, d.Dim)
	}
	return nil
}

func (sp Spec) validateFaults(nps int) error {
	if len(sp.Faults) == 0 {
		return nil
	}
	// Validate in application (After) order: the membership faults change
	// the fleet that later entries are checked against, so a crash of a
	// joiner or a partition naming it is legal, while a leave of an
	// already-drained node is not.
	order := make([]int, len(sp.Faults))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sp.Faults[order[a]].After < sp.Faults[order[b]].After
	})
	if nps == 0 {
		nps = 1 // single-server topologies materialize one server (core default)
	}
	m := newChurnTrajectory(sp.NW, sp.FW, nps, sp.FPS)
	for _, i := range order {
		flt := sp.Faults[i]
		if flt.After < 1 || flt.After >= sp.Iterations {
			return fmt.Errorf("%w: fault %d: after=%d outside [1, %d)", ErrSpec, i, flt.After, sp.Iterations)
		}
		nwSlots, npsSlots := len(m.workerActive), len(m.serverActive)
		switch flt.Kind {
		case FaultCrashServer, FaultRecoverServer:
			if flt.Node < 0 || flt.Node >= npsSlots {
				return fmt.Errorf("%w: fault %d: server %d of %d", ErrSpec, i, flt.Node, npsSlots)
			}
		case FaultCrashWorker, FaultDelayWorker, FaultSlowWorker:
			if flt.Node < 0 || flt.Node >= nwSlots {
				return fmt.Errorf("%w: fault %d: worker %d of %d", ErrSpec, i, flt.Node, nwSlots)
			}
			if flt.Kind != FaultCrashWorker && flt.DelayMS <= 0 {
				return fmt.Errorf("%w: fault %d: %s needs delay_ms > 0", ErrSpec, i, flt.Kind)
			}
		case FaultPartition:
			if len(flt.GroupA) == 0 || len(flt.GroupB) == 0 {
				return fmt.Errorf("%w: fault %d: partition needs non-empty group_a and group_b", ErrSpec, i)
			}
			seen := map[string]bool{}
			for _, g := range [][]string{flt.GroupA, flt.GroupB} {
				for _, name := range g {
					if err := validNodeName(name, nwSlots, npsSlots); err != nil {
						return fmt.Errorf("%w: fault %d: %v", ErrSpec, i, err)
					}
					if seen[name] {
						return fmt.Errorf("%w: fault %d: node %q appears on both sides of the partition", ErrSpec, i, name)
					}
					seen[name] = true
				}
			}
		case FaultHeal:
			// No fields; heal clears every partition.
		case FaultCorruptLink, FaultReorderLink:
			limit, side := nwSlots, "worker"
			if flt.Target == "server" {
				limit, side = npsSlots, "server"
			} else if flt.Target != "" && flt.Target != "worker" {
				return fmt.Errorf("%w: fault %d: %s target %q (want worker or server)", ErrSpec, i, flt.Kind, flt.Target)
			}
			if flt.Node < 0 || flt.Node >= limit {
				return fmt.Errorf("%w: fault %d: %s %d of %d", ErrSpec, i, side, flt.Node, limit)
			}
			if flt.Prob < 0 || flt.Prob > 1 {
				return fmt.Errorf("%w: fault %d: %s prob %v not in [0, 1]", ErrSpec, i, flt.Kind, flt.Prob)
			}
		case FaultByzServer:
			// The target must be a declared-Byzantine replica still on the
			// roster: only those are undriven adversary slots, so the
			// schedule can flip at most fps servers Byzantine — the
			// resilience budget the model GAR was validated against.
			if sp.FPS < 1 {
				return fmt.Errorf("%w: fault %d: byz-server needs fps >= 1 declared Byzantine servers", ErrSpec, i)
			}
			if flt.Node < 0 || flt.Node >= npsSlots || !m.serverByz[flt.Node] {
				return fmt.Errorf("%w: fault %d: byz-server node %d is not a declared-Byzantine replica (the last fps=%d of the initial nps=%d)",
					ErrSpec, i, flt.Node, sp.FPS, nps)
			}
			if !m.serverActive[flt.Node] {
				return fmt.Errorf("%w: fault %d: byz-server node %d already left the roster", ErrSpec, i, flt.Node)
			}
			if flt.Mode != "" && !core.ValidByzMode(flt.Mode) {
				return fmt.Errorf("%w: fault %d: unknown byz-server mode %q (want one of %v)",
					ErrSpec, i, flt.Mode, core.ByzModes())
			}
		case FaultJoin, FaultLeave, FaultScale:
			if sp.Topology == TopoDecentralized {
				return fmt.Errorf("%w: fault %d: membership faults are not supported on the decentralized topology (every node is a server+worker pair)", ErrSpec, i)
			}
			if err := m.apply(sp, i, flt); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: fault %d: unknown kind %q", ErrSpec, i, flt.Kind)
		}
	}
	return nil
}

// churnTrajectory simulates the membership layer's roster across a fault
// schedule so Validate can reject a churn plan that would be refused (or
// strand the fleet) at runtime, before any cluster is built. Slots mirror
// core.Cluster's append-only node tables: joiners extend the tables, leavers
// flip active flags, and indices are stable.
type churnTrajectory struct {
	workerActive, workerByz []bool
	serverActive, serverByz []bool
}

func newChurnTrajectory(nw, fw, nps, fps int) *churnTrajectory {
	m := &churnTrajectory{
		workerActive: make([]bool, nw),
		workerByz:    make([]bool, nw),
		serverActive: make([]bool, nps),
		serverByz:    make([]bool, nps),
	}
	for i := range m.workerActive {
		m.workerActive[i] = true
		m.workerByz[i] = i >= nw-fw
	}
	for i := range m.serverActive {
		m.serverActive[i] = true
		m.serverByz[i] = i >= nps-fps
	}
	return m
}

// apply executes one membership fault on the simulated roster and validates
// the resulting fleet shape the same way core.Cluster does per epoch.
func (m *churnTrajectory) apply(sp Spec, i int, flt Fault) error {
	side := flt.Target
	if side == "" {
		side = "worker"
	}
	if side != "worker" && side != "server" {
		return fmt.Errorf("%w: fault %d: %s target %q (want worker or server)", ErrSpec, i, flt.Kind, side)
	}
	active, byz := &m.workerActive, &m.workerByz
	if side == "server" {
		active, byz = &m.serverActive, &m.serverByz
	}
	switch flt.Kind {
	case FaultJoin:
		*active = append(*active, true)
		*byz = append(*byz, false)
	case FaultLeave:
		if flt.Node < 0 || flt.Node >= len(*active) {
			return fmt.Errorf("%w: fault %d: leave %s %d of %d", ErrSpec, i, side, flt.Node, len(*active))
		}
		if !(*active)[flt.Node] {
			return fmt.Errorf("%w: fault %d: %s %d already left the roster", ErrSpec, i, side, flt.Node)
		}
		(*active)[flt.Node] = false
	case FaultScale:
		if flt.Delta == 0 {
			return fmt.Errorf("%w: fault %d: scale needs delta != 0", ErrSpec, i)
		}
		for k := 0; k < flt.Delta; k++ {
			*active = append(*active, true)
			*byz = append(*byz, false)
		}
		for k, drained := 0, 0; k < -flt.Delta; k++ {
			j := len(*active) - 1
			for ; j >= 0 && !(*active)[j]; j-- {
			}
			if j < 0 {
				return fmt.Errorf("%w: fault %d: scale %s by %d, only %d active", ErrSpec, i, side, flt.Delta, drained)
			}
			(*active)[j] = false
			drained++
		}
	}
	return m.check(sp, i)
}

// check validates the simulated roster the way the membership layer will at
// runtime (core.ValidateFleet: GAR floor, async quorum, model-rule floor),
// plus the one requirement that belongs to the topology rather than the
// fleet: msmw stays replicated.
func (m *churnTrajectory) check(sp Spec, i int) error {
	count := func(active, byz []bool) (n, f int) {
		for j, a := range active {
			if a {
				n++
				if byz[j] {
					f++
				}
			}
		}
		return n, f
	}
	nw, fw := count(m.workerActive, m.workerByz)
	nps, fps := count(m.serverActive, m.serverByz)
	modelRule := sp.ModelRule
	if modelRule == "" {
		modelRule = gar.NameMedian
	}
	if err := core.ValidateFleet(sp.Rule, modelRule, nw, fw, nps, fps); err != nil {
		return fmt.Errorf("%w: fault %d: %v", ErrSpec, i, err)
	}
	if sp.Topology == TopoMSMW && nps < 2 {
		return fmt.Errorf("%w: fault %d: msmw needs nps >= 2, roster transition leaves %d", ErrSpec, i, nps)
	}
	return nil
}

// validNodeName checks a partition-group entry: "worker-<i>" or
// "server-<i>" with the index in range.
func validNodeName(name string, nw, nps int) error {
	var idx int
	var limit int
	switch {
	case strings.HasPrefix(name, "worker-"):
		idx, limit = parseIndex(name[len("worker-"):]), nw
	case strings.HasPrefix(name, "server-"):
		idx, limit = parseIndex(name[len("server-"):]), nps
	default:
		return fmt.Errorf("bad node name %q (want worker-<i> or server-<i>)", name)
	}
	if idx < 0 || idx >= limit {
		return fmt.Errorf("node %q out of range (%d nodes on that side)", name, limit)
	}
	return nil
}

// parseIndex parses a non-negative decimal index, returning -1 on junk.
func parseIndex(s string) int {
	if s == "" {
		return -1
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' || n > 1<<20 {
			return -1
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// EncodeJSON writes the spec as indented JSON.
func (sp Spec) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sp)
}

// DecodeJSON parses a spec from JSON, rejecting unknown fields so typos in
// scenario files fail loudly. The decoded spec is not validated; call
// Validate (or let Run do it).
func DecodeJSON(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return sp, nil
}

// sortedFaults returns the fault schedule ordered by After (stable for
// equal boundaries).
func (sp Spec) sortedFaults() []Fault {
	if len(sp.Faults) == 0 {
		return nil
	}
	out := append([]Fault(nil), sp.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].After < out[j].After })
	return out
}
