// Command measure-variance is the Go port of the paper's
// measure_variance.py tool (Section 3.1): it checks empirically whether a
// deployment satisfies the variance condition each GAR's resilience proof
// requires,
//
//	kappa * Delta(GAR) * sqrt(E ||g_i - E g_i||^2)  <=  ||grad L||,
//
// by running a few training steps, estimating the true gradient with a huge
// batch, and reporting how often the condition held for each rule.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"garfield/internal/data"
	"garfield/internal/gar"
	"garfield/internal/model"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "measure-variance:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("measure-variance", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of workers")
	f := fs.Int("f", 2, "declared Byzantine workers")
	batch := fs.Int("batch", 32, "per-worker mini-batch size")
	steps := fs.Int("steps", 20, "training steps to sample")
	dim := fs.Int("dim", 64, "feature dimension of the synthetic task")
	classes := fs.Int("classes", 10, "classes of the synthetic task")
	seed := fs.Uint64("seed", 1, "random seed")
	momentum := fs.Float64("momentum", 0, "worker-side momentum (variance reduction; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *f < 0 || *f >= *n {
		return fmt.Errorf("invalid n=%d f=%d", *n, *f)
	}

	train, _, err := data.Generate(data.SyntheticSpec{
		Name: "variance-probe", Dim: *dim, Classes: *classes,
		Train: max(2000, *n**batch*4), Test: 10,
		Separation: 1.0, Noise: 1.0, Seed: *seed,
	})
	if err != nil {
		return err
	}
	arch, err := model.NewLinearSoftmax(*dim, *classes)
	if err != nil {
		return err
	}
	shards, err := data.PartitionIID(train, *n, *seed)
	if err != nil {
		return err
	}
	samplers := make([]*data.Sampler, *n)
	for i := range samplers {
		if samplers[i], err = data.NewSampler(shards[i], *seed+uint64(i)); err != nil {
			return err
		}
	}

	params := arch.InitParams(tensor.NewRNG(*seed))
	opt, err := sgd.New(sgd.Constant(0.1))
	if err != nil {
		return err
	}
	// The "true" gradient is estimated with the whole training set, the
	// tool's huge-batch stand-in.
	allIdx := make([]int, train.Len())
	for i := range allIdx {
		allIdx[i] = i
	}
	fullBatch := train.Batch(allIdx)

	if *momentum < 0 || *momentum >= 1 {
		return fmt.Errorf("invalid momentum %v", *momentum)
	}
	// Worker-side momentum state (one velocity per worker): the paper's
	// Section 8 notes that variance-reduction techniques like distributed
	// momentum "help restore the resilience guarantees of such GARs"; the
	// -momentum flag lets this tool demonstrate exactly that effect on the
	// measured ratios.
	velocities := make([]tensor.Vector, *n)

	rules := []string{gar.NameMDA, gar.NameKrum, gar.NameMedian}
	satisfied := make(map[string]int, len(rules))
	fmt.Fprintf(out, "step  %-8s %-8s %-8s   (ratio = ||grad L|| / (Delta * stddev); condition holds when > 1)\n",
		rules[0], rules[1], rules[2])
	var drawn data.Batch // refilled per draw: Gradient reads it only during the call
	for step := 0; step < *steps; step++ {
		grads := make([]tensor.Vector, *n)
		for i := 0; i < *n; i++ {
			drawn = samplers[i].Next(drawn, *batch)
			g, err := arch.Gradient(params, drawn)
			if err != nil {
				return err
			}
			if *momentum > 0 {
				if velocities[i] == nil {
					velocities[i] = tensor.New(len(g))
				}
				for c := range g {
					velocities[i][c] = *momentum*velocities[i][c] + g[c]
				}
				g = velocities[i].Clone()
				// The smoothed gradient approximates 1/(1-mu) times
				// the true gradient at steady state; rescale so the
				// ratio stays comparable across momentum settings.
				g.ScaleInPlace(1 - *momentum)
			}
			grads[i] = g
		}
		trueGrad, err := arch.Gradient(params, fullBatch)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%4d ", step)
		for _, rule := range rules {
			rep, err := gar.CheckVarianceCondition(rule, *f, grads, trueGrad)
			if err != nil {
				return err
			}
			if rep.Satisfied {
				satisfied[rule]++
			}
			fmt.Fprintf(out, " %8.3f", rep.Ratio)
		}
		fmt.Fprintln(out)
		if err := opt.Apply(params, trueGrad); err != nil {
			return err
		}
	}
	fmt.Fprintln(out)
	for _, rule := range rules {
		fmt.Fprintf(out, "%-8s condition satisfied in %d/%d steps\n", rule, satisfied[rule], *steps)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
