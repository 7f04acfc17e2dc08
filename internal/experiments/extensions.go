package experiments

import (
	"fmt"

	"garfield/internal/attack"
	"garfield/internal/core"
	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/metrics"
	"garfield/internal/model"
	"garfield/internal/scenario"
	"garfield/internal/tensor"
)

// Extension experiments: ablations beyond the paper's figure set, covering
// the design choices DESIGN.md §6 calls out. Their ids carry an "ext-"
// prefix so they are never confused with reproduced paper artifacts.

// ExtMomentum quantifies how worker-side momentum (the paper's Section-8
// variance-reduction pointer) affects the GAR variance condition: for each
// rule it reports in how many of the sampled steps the condition held, with
// and without momentum.
func ExtMomentum(opt Options) (Renderable, error) {
	steps := 20
	if opt.Quick {
		steps = 8
	}
	const n, f, batchSize = 10, 3, 16

	train, _, err := data.Generate(data.SyntheticSpec{
		Name: "ext-momentum", Dim: 32, Classes: 5,
		Train: 2000, Test: 10, Separation: 1.0, Noise: 1.0, Seed: opt.seed(),
	})
	if err != nil {
		return nil, err
	}
	arch, err := model.NewLinearSoftmax(32, 5)
	if err != nil {
		return nil, err
	}
	rules := []string{gar.NameMDA, gar.NameKrum, gar.NameMedian}

	count := func(momentum float64) (map[string]int, error) {
		shards, err := data.PartitionIID(train, n, opt.seed())
		if err != nil {
			return nil, err
		}
		samplers := make([]*data.Sampler, n)
		velocities := make([]tensor.Vector, n)
		for i := range samplers {
			if samplers[i], err = data.NewSampler(shards[i], opt.seed()+uint64(i)); err != nil {
				return nil, err
			}
		}
		params := arch.InitParams(tensor.NewRNG(opt.seed()))
		allIdx := make([]int, train.Len())
		for i := range allIdx {
			allIdx[i] = i
		}
		full := train.Batch(allIdx)
		satisfied := make(map[string]int, len(rules))
		var drawn data.Batch // refilled per draw: Gradient reads it only during the call
		for step := 0; step < steps; step++ {
			grads := make([]tensor.Vector, n)
			for i := 0; i < n; i++ {
				drawn = samplers[i].Next(drawn, batchSize)
				g, err := arch.Gradient(params, drawn)
				if err != nil {
					return nil, err
				}
				if momentum > 0 {
					if velocities[i] == nil {
						velocities[i] = tensor.New(len(g))
					}
					for c := range g {
						velocities[i][c] = momentum*velocities[i][c] + g[c]
					}
					g = velocities[i].Scale(1 - momentum)
				}
				grads[i] = g
			}
			trueGrad, err := arch.Gradient(params, full)
			if err != nil {
				return nil, err
			}
			for _, rule := range rules {
				rep, err := gar.CheckVarianceCondition(rule, f, grads, trueGrad)
				if err != nil {
					return nil, err
				}
				if rep.Satisfied {
					satisfied[rule]++
				}
			}
			if err := params.AXPY(-0.1, trueGrad); err != nil {
				return nil, err
			}
		}
		return satisfied, nil
	}

	raw, err := count(0)
	if err != nil {
		return nil, err
	}
	smoothed, err := count(0.9)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("Extension: variance condition satisfaction over %d steps (n=%d, f=%d)", steps, n, f),
		Header: []string{"GAR", "plain SGD", "worker momentum 0.9"},
	}
	for _, rule := range rules {
		t.AddRow(rule,
			fmt.Sprintf("%d/%d", raw[rule], steps),
			fmt.Sprintf("%d/%d", smoothed[rule], steps))
	}
	return t, nil
}

// ExtGARs compares every robust rule's final accuracy under the
// reversed-vectors attack in the same SSMW deployment — the library-level
// "which GAR should I pick" table. It is a one-dimensional scenario sweep:
// one base spec, a Rules axis.
func ExtGARs(opt Options) (Renderable, error) {
	iters := 120
	if opt.Quick {
		iters = 30
	}
	// nw=15, fw=3 satisfies every rule's precondition (bulyan: 4*3+3=15).
	rules := []string{
		gar.NameMedian, gar.NameTrimmedMean, gar.NameKrum, gar.NameMultiKrum,
		gar.NameMDA, gar.NameBulyan, gar.NameGeoMedian, gar.NamePhocas,
	}
	m, d := cifarStyleTask(opt)
	t := &metrics.Table{
		Title:  "Extension: final accuracy per GAR under the reversed-vectors attack (nw=15, fw=3)",
		Header: []string{"GAR", "final accuracy"},
	}
	for _, rule := range rules {
		sp := scenario.Spec{
			Topology: scenario.TopoSSMW,
			Model:    m, Dataset: d,
			BatchSize: 16,
			NW:        15, FW: 3,
			Rule:         rule,
			WorkerAttack: scenario.AttackSpec{Name: attack.NameReversed},
			Seed:         opt.seed(),
			Iterations:   iters,
		}
		res, err := scenario.Run(sp)
		if err != nil {
			return nil, fmt.Errorf("ext-gars %s: %w", rule, err)
		}
		t.AddRow(rule, fmt.Sprintf("%.4f", res.Accuracy.Last()))
	}
	return t, nil
}

// ExtLiveThroughput measures real wall-clock updates/sec of every protocol
// on the in-process cluster — the live counterpart of the simnet-modelled
// Figures 6-8, useful for checking that the model's orderings also hold for
// the actual Go implementation (at laptop scale the network term is pipes,
// so only the protocol-structure ordering carries over, not the ratios).
func ExtLiveThroughput(opt Options) (Renderable, error) {
	iters := 60
	if opt.Quick {
		iters = 20
	}
	m, d := cifarStyleTask(opt)
	sp := tfSetup(opt, m, d)
	if !opt.Quick {
		// Keep the live sweep affordable even in full mode.
		sp.NW, sp.FW, sp.NPS, sp.FPS = 9, 1, 4, 1
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("Extension: live throughput over %d iterations (in-process cluster)", iters),
		Header: []string{"System", "updates/sec"},
	}
	for _, sys := range []string{"vanilla", "ssmw", "crash-tolerant", "msmw", "decentralized"} {
		res, err := runSystem(sys, sp, core.RunOptions{Iterations: iters, AccEvery: 0})
		if err != nil {
			return nil, fmt.Errorf("ext-live %s: %w", sys, err)
		}
		t.AddRow(displayName(sys), fmt.Sprintf("%.1f", res.UpdatesPerSec()))
	}
	return t, nil
}

// ExtStale studies the staleness fault the paper's Drop attack cannot model:
// a live node that keeps replaying its first gradient. Robust aggregation
// must contain it; plain averaging absorbs a persistent bias.
func ExtStale(opt Options) (Renderable, error) {
	iters := 120
	if opt.Quick {
		iters = 30
	}
	m, d := cifarStyleTask(opt)
	t := &metrics.Table{
		Title:  "Extension: accuracy with one stale node (replays its first gradient)",
		Header: []string{"System", "final accuracy"},
	}
	for _, sys := range []string{"vanilla", "ssmw"} {
		sp := scenario.Spec{
			Model: m, Dataset: d,
			BatchSize: 16,
			NW:        9, FW: 1,
			Rule:         gar.NameMedian,
			WorkerAttack: scenario.AttackSpec{Name: attack.NameStale},
			Seed:         opt.seed(),
		}
		res, err := runSystem(sys, sp, core.RunOptions{Iterations: iters, AccEvery: 0})
		if err != nil {
			return nil, fmt.Errorf("ext-stale %s: %w", sys, err)
		}
		t.AddRow(displayName(sys), fmt.Sprintf("%.4f", res.Accuracy.Last()))
	}
	return t, nil
}
