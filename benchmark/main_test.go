package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"garfield/internal/core"
)

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) (result, map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// checkSchema holds a result line to the contract: exactly the four keys,
// exactly the mode's metrics, each with its table unit, each named in the
// human-readable report above the line.
func checkSchema(t *testing.T, out string, defs []metricDef) result {
	t.Helper()
	res, raw := lastLine(t, out)
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", raw)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		got, ok := res.Metrics[def.name]
		if !ok {
			t.Errorf("metric %s missing", def.name)
			continue
		}
		if got.Unit != def.unit {
			t.Errorf("metric %s in %q, want %q", def.name, got.Unit, def.unit)
		}
		if !strings.Contains(out, "  "+def.name+" ") {
			t.Errorf("metric %s not printed by name", def.name)
		}
	}
	return res
}

// TestQuickSmoke runs every workload's traced mode under -quick. The traced
// mode is the superset: it measures an untraced twin with every end-to-end
// correctness check, the traced deployment with the same checks, and every
// probe.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.in*w.classes >= 1_000_000 {
				t.Skip("d = 1M workloads take a few seconds each")
			}
			var stdout, stderr bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			code := run([]string{"-quick", "-workload", w.name, "-trace", "1", "-trace-out", spans}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
			}
			res := checkSchema(t, stdout.String(), perLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := res.Metrics["rpc.retries"].Value; got != 0 {
				t.Errorf("rpc.retries = %v", got)
			}
			if got, want := res.Metrics["model.gradient_calls"].Value, float64(w.nw); got < want {
				t.Errorf("model.gradient_calls = %v per round, want at least one per worker (%v)", got, want)
			}
			var tf traceFile
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("span file: %v", err)
			}
			seen := map[string]bool{}
			for _, s := range tf.Spans {
				seen[s.Name] = true
			}
			for _, name := range []string{spanRound, spanPull, spanHandle, spanGradient} {
				if !seen[name] {
					t.Errorf("span file of %d spans has no %s span", len(tf.Spans), name)
				}
			}
		})
	}
}

func TestEndToEndSchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "ssmw_small", "--seed", "7", "--seconds", "1", "--trace", "0", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res := checkSchema(t, stdout.String(), endToEnd)
	for _, def := range endToEnd {
		if v := res.Metrics[def.name].Value; !(v > 0) {
			t.Errorf("%s = %v; end-to-end metrics are never 0", def.name, v)
		}
	}
}

// TestBrokenCheckFailsTheRun breaks a correctness check on purpose — no
// model is more than 100% accurate — and expects a result line that says so
// and a non-zero exit.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	w, _ := workloadByName("ssmw_small")
	var stdout, stderr bytes.Buffer
	code := runOne(options{w: w, seed: 1, seconds: 1, quick: true, minAccuracy: 1.1}, false, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if res, _ := lastLine(t, stdout.String()); res.Correct {
		t.Error("result line claims correct")
	}
	if !strings.Contains(stdout.String(), "CHECK FAILED: final accuracy") {
		t.Errorf("failed check not reported:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2", "-workload", "ssmw_small"},
		{"-seconds", "0", "-workload", "ssmw_small"}, {"-no-such-flag"}, {"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report: %s", args, stdout.String())
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	// The driver runs a subset of the harness's workloads (README, time
	// budget).
	if len(spec.Workloads) < 2 {
		t.Errorf("%d workloads listed", len(spec.Workloads))
	}
	for _, e := range spec.Workloads {
		if w, ok := workloadByName(e.Name); !ok || e.Why != w.why {
			t.Errorf("listed workload %q / %q, harness has %q / %q", e.Name, e.Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if w.segRounds < 2 || w.quickRounds < 2 {
			t.Errorf("%s: segments of %d/%d rounds; the tracer needs at least 2", w.name, w.segRounds, w.quickRounds)
		}
	}
	compare := func(kind string, listed []entry, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, harness prints %d", kind, len(listed), len(defs))
			return
		}
		for i, def := range defs {
			e := listed[i]
			better := "lower"
			if def.higher {
				better = "higher"
			}
			if e.Name != def.name || e.Unit != def.unit || e.Better != better {
				t.Errorf("%s %d: %s/%s/%s, harness has %s/%s/%s", kind, i, e.Name, e.Unit, e.Better, def.name, def.unit, better)
			}
			if bounded != (e.Bound != nil) || (bounded && (*e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, e.Name, e.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// TestHarnessWiringLeaksNothing checks the reason the benchmark's callers
// implement io.Closer: a cluster on the benchmark's wiring, TCP included,
// gives every goroutine back.
func TestHarnessWiringLeaksNothing(t *testing.T) {
	if err := startGarPool(); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("ssmw_small")
	for _, tcp := range []bool{false, true} {
		w.tcp = tcp
		before := runtime.NumGoroutine()
		in, err := w.inputs(1)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := w.config(in, in.arch, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewClusterWith(cfg, newWiring(tcp, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.run(c, 3); err != nil {
			t.Fatal(err)
		}
		c.Close()
		after := settledGoroutines()
		for i := 0; i < 50 && after > before; i++ { // sockets take a moment longer
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("tcp=%v: %d goroutines before, %d after Close", tcp, before, after)
		}
	}
}
