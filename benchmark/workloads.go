package main

import (
	"fmt"

	"garfield/internal/attack"
	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/model"
)

// Topologies a workload can drive.
const (
	topoSSMW    = "ssmw"
	topoMSMW    = "msmw"
	topoSharded = "sharded"
)

// workload is one fixed deployment shape of the benchmark. Everything that
// varies between runs of one workload derives from the seed; the shape never
// does. The last fw workers (and the last fps servers) run the reversed
// attack, so the GARs do real rejection work on every round.
type workload struct {
	name string
	// why is the reason the workload exists: which layers it stresses.
	why      string
	topology string

	// Model: a linear softmax in x classes, or an MLP when hidden > 0.
	in, hidden, classes int
	// train is the training-set size, sharded IID across the workers.
	train int

	nw, fw, nps, fps int
	shards           int
	rule             string
	batch            int
	codec            string
	// tcp runs the cluster over 127.0.0.1 sockets instead of the in-memory
	// transport.
	tcp bool
	// syncQuorum pulls from all workers (q = n) instead of the first n - f.
	syncQuorum bool

	// segRounds is the number of rounds per Run* call (one sample segment);
	// quickRounds replaces it under -quick. Both are at least 2: the tracer
	// tells rounds apart by the step changing between consecutive gradient
	// pulls, and a Run* call numbers its steps from 0.
	segRounds, quickRounds int
}

// workloads is the benchmark's fixed workload list, in report order. Segments
// last about a second, so that a reference reading (reference.go) brackets
// each at a tenth of its cost. BENCHMARK.json lists four of the six for the
// driver — its time limit fits no more at a run length that repeats — and
// leaves out the two whose memory-bound d = 1M rounds the reference kernel
// tracks worst, ssmw_lin1m_bulyan and sharded_lin1m.
var workloads = []workload{
	{
		name: "ssmw_mlp100k", topology: topoSSMW,
		why: "paper's headline deployment: 17 MLP gradients over 2 cores are ~90% of the blocking path, gar < 6%, rpc small",
		in:  784, hidden: 128, classes: 10, train: 4000,
		nw: 17, fw: 3, rule: "multikrum", batch: 32,
		segRounds: 10, quickRounds: 5,
	},
	{
		name: "ssmw_small", topology: topoSSMW,
		why: "~1.7 ms rounds at d=10k: the pull path with zero compute is a third of the round, so fixed per-call rpc/core cost shows end to end",
		in:  1000, classes: 10, train: 2000,
		nw: 17, fw: 3, rule: "multikrum", batch: 4,
		segRounds: 400, quickRounds: 20,
	},
	{
		name: "ssmw_lin1m_bulyan", topology: topoSSMW,
		why: "d=1M with bulyan: gar is ~45% of the round, and 8 MB fp64 frames take the uncompressed rpc/tensor decode-into-arena path",
		in:  10000, classes: 100, train: 900,
		nw: 15, fw: 3, rule: "bulyan", batch: 4,
		segRounds: 3, quickRounds: 2,
	},
	{
		name: "ssmw_lin1m_int8_tcp", topology: topoSSMW,
		why: "d=1M, int8 codec over TCP loopback: compress + rpc + transport on real sockets, the compressed reply path",
		in:  10000, classes: 100, train: 900,
		nw: 9, fw: 2, rule: "median", batch: 4, codec: "int8", tcp: true,
		segRounds: 5, quickRounds: 2,
	},
	{
		name: "msmw_mlp100k", topology: topoMSMW,
		why: "replicated servers: first-q pulls with straggler cancel, server-side Handle and model exchange (core orchestration)",
		in:  784, hidden: 128, classes: 10, train: 4000,
		nw: 9, fw: 2, nps: 4, fps: 1, rule: "multikrum", batch: 32,
		segRounds: 10, quickRounds: 10,
	},
	{
		name: "sharded_lin1m", topology: topoSharded,
		why: "a real sharded round over RPC at d=1M: ranged pulls, part publish, assembly; 36 gradients per round where 9 would do",
		in:  10000, classes: 100, train: 900,
		nw: 9, fw: 2, nps: 4, shards: 4, rule: "median", batch: 4, syncQuorum: true,
		segRounds: 2, quickRounds: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) arch() (model.Model, error) {
	if w.hidden > 0 {
		return model.NewMLP(w.in, w.hidden, w.classes)
	}
	return model.NewLinearSoftmax(w.in, w.classes)
}

// garShape returns the input count, Byzantine budget and vector width of one
// gradient-aggregation call as the workload's protocol issues it: replicated
// servers aggregate the first n - f replies, a sharded owner aggregates one
// coordinate slice of every reply.
func (w workload) garShape(dim int) (n, f, width int) {
	n, f, width = w.nw, w.fw, dim
	if !w.syncQuorum && w.topology != topoSSMW {
		n = w.nw - w.fw
	}
	if w.topology == topoSharded {
		width = (dim + w.shards - 1) / w.shards
	}
	return n, f, width
}

// sequentialReplicas reports whether the topology drives every replica on
// the one driver goroutine, so that every replica's pulls — not only
// server-0's — lie on the round's blocking path.
func (w workload) sequentialReplicas() bool { return w.topology == topoSharded }

const (
	// heldTest is the size of the harness-held test set final accuracy is
	// measured on; clusterTest the size of the slice of it handed to the
	// cluster. Every Run* call evaluates accuracy once at its end, so a big
	// Config.Test would put model evaluation inside every sample segment.
	heldTest    = 500
	clusterTest = 16
)

// inputs are one seed's generated inputs of a workload.
type inputs struct {
	arch        model.Model
	train, held *data.Dataset
	test        *data.Dataset // first clusterTest examples of held
}

func (w workload) inputs(seed uint64) (*inputs, error) {
	arch, err := w.arch()
	if err != nil {
		return nil, err
	}
	train, held, err := data.Generate(data.SyntheticSpec{
		Name: w.name, Dim: w.in, Classes: w.classes,
		Train: w.train, Test: heldTest, Separation: 1, Noise: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	idx := make([]int, clusterTest)
	for i := range idx {
		idx[i] = i
	}
	return &inputs{arch: arch, train: train, held: held, test: held.Subset(idx)}, nil
}

// config returns the cluster configuration over the given inputs. arch is
// passed separately so the traced run can substitute its timing wrapper.
func (w workload) config(in *inputs, arch model.Model, seed uint64) (core.Config, error) {
	reversed, err := attack.New(attack.NameReversed, nil)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Arch: arch, Train: in.train, Test: in.test,
		BatchSize: w.batch,
		NW:        w.nw, FW: w.fw, NPS: w.nps, FPS: w.fps,
		Rule:         w.rule,
		WorkerAttack: reversed,
		SyncQuorum:   w.syncQuorum,
		Compression:  w.codec,
		Shards:       w.shards,
		Seed:         seed,
	}
	if w.fps > 0 {
		// A declared-Byzantine replica without an attack serves its frozen
		// initial model, and the coordinate-wise median of {own, peer,
		// frozen} drags coordinates back to their initial values for tens of
		// rounds (README, open observations). A live attack is an outlier
		// the model GAR rejects instead.
		cfg.ServerAttack = reversed
	}
	return cfg, nil
}

// run drives rounds iterations of the workload's protocol: one Run* call,
// one sample segment.
func (w workload) run(c *core.Cluster, rounds int) (*core.Result, error) {
	opt := core.RunOptions{Iterations: rounds}
	switch w.topology {
	case topoSSMW:
		return c.RunSSMW(opt)
	case topoMSMW:
		return c.RunMSMW(opt)
	case topoSharded:
		return c.RunSharded(opt)
	}
	return nil, fmt.Errorf("workload %s: unknown topology %q", w.name, w.topology)
}
