// Command benchmark is the repository's benchmark: six fixed deployments of
// a Byzantine-resilient SGD round, each measured end to end (tracing off)
// and layer by layer (a traced run plus isolated probes). See README.md.
//
//	go run -C benchmark .                       # every workload, both modes
//	go run -C benchmark . -workload ssmw_small  # one workload, end to end
//	go run -C benchmark . -workload ssmw_small -trace 1 -trace-out spans.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit. It returns 0
// when every run was correct, 1 when a correctness check failed (the result
// line is still printed, with "correct": false) and 2 when it could not
// measure at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and probes")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
	quick := fs.Bool("quick", false, "smoke run: two segments, one set-up, one repetition per probe; every correctness check still runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-quick]")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *quick, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-20s %s\n", w.name, w.why)
		}
		return 2
	}
	o := options{
		w: w, seed: *seed, seconds: *seconds, quick: *quick,
		traceOut: *traceOut, minAccuracy: defaultMinAccuracy,
	}
	return runOne(o, *trace == 1, stdout, stderr)
}

// runOne measures one workload in one mode in this process and prints the
// report, then the result line.
func runOne(o options, traced bool, stdout, stderr io.Writer) int {
	// The in-process cluster's goroutines are capped here; every number the
	// benchmark reports is at this setting.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	o.ref = newReference(procs)

	defs, runFn, mode := endToEnd, runEndToEnd, "end to end, tracing off"
	if traced {
		defs, runFn, mode = perLayer, runPerLayer, "per layer, traced run + probes"
	}
	fmt.Fprintf(stdout, "workload %s (%s), seed %d\n", o.w.name, mode, o.seed)
	fmt.Fprintf(stdout, "  why: %s\n", o.w.why)
	fmt.Fprintf(stdout, "  env: %s, GOMAXPROCS %d of %d CPUs, %s, commit %s\n",
		runtime.Version(), procs, runtime.NumCPU(), cpuModel(), commit())

	out, err := runFn(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.w.name, err)
		return 2
	}
	for _, note := range out.notes {
		fmt.Fprintf(stdout, "  %s\n", note)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, def := range defs {
		v := out.metrics[def.name] // 0 when the run broke off before measuring it
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(stdout, "  %-28s %18.4f %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(stdout, "  %-28s %18d\n  %-28s %18d\n", "rounds_attempted", res.Attempted, "rounds_failed", res.Failed)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in both modes, one child process per run so
// that no run sees the heap, pools or goroutines of another, and prints one
// combined result line with the metrics keyed "<workload>/<metric>".
func runAll(seed uint64, seconds float64, quick bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
			}
			if trace == 1 {
				args = append(args, "-trace-out", filepath.Join("out", w.name+".spans.json"))
			}
			if quick {
				args = append(args, "-quick")
			}
			res, err := runChild(self, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s -trace %d: %v\n", w.name, trace, err)
				all.Correct = false
				code = 2
				continue
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for name, v := range res.Metrics {
				all.Metrics[w.name+"/"+name] = v
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if code == 0 && (!all.Correct || all.Failed > 0) {
		code = 1
	}
	return code
}

// runChild runs one measurement in a child process, copies its report
// through and returns its result line parsed.
func runChild(self string, args []string, stdout, stderr io.Writer) (result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var exit *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exit) && exit.ExitCode() == 1) {
		return result{}, runErr // exit 1 still printed a result line
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// cpuModel returns the CPU model name where the platform exposes it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the revision the binary was built from: stamped by the go
// command when it builds inside a git checkout, asked of git otherwise.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
