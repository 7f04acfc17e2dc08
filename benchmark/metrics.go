package main

// metricDef names one reported metric. The two tables below are the single
// source of the names and units the harness prints; BENCHMARK.json lists the
// same names (a test compares them), and README.md defines each.
type metricDef struct {
	name, unit string
	// higher reports that larger values are better.
	higher bool
}

// endToEnd are the metrics of an untraced run (-trace 0), in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"updates_per_s", "1/s", true},
	{"round_ms_p50", "ms", false},
	{"wire_bytes_per_round", "bytes", false},
	{"allocs_per_round", "count", false},
	{"alloc_kb_per_round", "KiB", false},
	{"final_accuracy", "ratio", true},
}

// perLayer are the metrics of a traced run (-trace 1), in print order. The
// prefix of each name is the internal/ package the number belongs to.
var perLayer = []metricDef{
	// From the traced run's spans.
	{"model.gradient_ms", "ms", false},
	{"model.gradient_calls", "count", false},
	{"model.useful_share", "ratio", true},
	{"core.handle_ms", "ms", false},
	{"core.handle_self_ms", "ms", false},
	{"rpc.pull_ms", "ms", false},
	{"rpc.pull_ms.gradient", "ms", false},
	{"rpc.pull_ms.model", "ms", false},
	{"rpc.pull_ms.shard_part", "ms", false},
	{"rpc.tail_ms", "ms", false},
	// From the traced run's Result.Wire and Result.Breakdown.
	{"rpc.calls", "count", false},
	{"rpc.reply_bytes", "bytes", false},
	{"rpc.retries", "count", false},
	{"rpc.backoff_ms", "ms", false},
	{"gar.aggregate_ms", "ms", false},
	{"core.other_ms", "ms", false},
	{"core.round_ms_p50", "ms", false},
	{"core.round_ms_p90", "ms", false},
	// From the untraced twin run of the same process.
	{"core.tracing_overhead_pct", "%", false},
	{"core.goroutines_leaked", "count", false},
	{"runtime.heap_sys_mb", "MiB", false},
	// From isolated probes of the layers' public functions.
	{"gar.aggregate_probe_ms", "ms", false},
	{"gar.aggregate_probe_ms_p1", "ms", false},
	{"gar.pool_speedup", "ratio", true},
	{"compress.encode_ms", "ms", false},
	{"compress.decode_ms", "ms", false},
	{"compress.ratio", "ratio", true},
	{"tensor.codec_ms", "ms", false},
	{"rpc.pull_probe_ms", "ms", false},
	{"rpc.pull_probe_allocs", "count", false},
	{"transport.roundtrip_ms", "ms", false},
	{"sgd.update_ms", "ms", false},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
