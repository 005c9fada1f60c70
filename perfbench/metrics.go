package main

import "fmt"

// metricDef is one reported metric: its name and unit as they appear in the
// result line and in BENCHMARK.json.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on every
// workload. See README.md for how each is defined per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gens_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p99_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1), reported on every
// workload; a layer the workload does not load reads 0.
var perLayer = []metricDef{
	{"game.play_pure_ns", "ns"},
	{"game.play_ns", "ns"},
	{"game.matches_evaluated", "count"},
	{"game.cache_hit_ns", "ns"},
	{"game.cache_hit_rate", "ratio"},
	{"game.cache_evictions", "count"},
	{"strategy.fingerprint_ns", "ns"},
	{"analysis.markov_pair_ns", "ns"},
	{"sim.game_play_s", "s/kgen"},
	{"sim.game_play_imbalance", "ratio"},
	{"sim.parallel_efficiency", "ratio"},
	{"sim.worker_wait_s", "s/kgen"},
	{"sim.nature_untimed_s", "s/kgen"},
	{"sim.comm_share", "ratio"},
	{"mpi.msgs_per_gen", "count"},
	{"mpi.bytes_per_gen", "B"},
	{"mpi.bcast_us", "us"},
	{"mpi.reduce_us", "us"},
	{"mpi.wire_frames_per_gen", "count"},
	{"mpi.wire_bytes_per_gen", "B"},
	{"mpi.wire_resends", "count"},
	{"mpi.wire_decode_errs", "count"},
	{"mpi.pingpong_unix_us", "us"},
	{"mpi.pingpong_inproc_us", "us"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.sse_reconnects_per_job", "count"},
	{"server.cost_ratio_cached", "ratio"},
	{"server.cost_ratio_exact", "ratio"},
	{"server.fsync_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: the operations attempted and failed
// (a failure is an error, a refusal, or an output that differs from the
// reference) and the measured metrics by name.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one attempted operation and, when err is non-nil, one
// failure.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		logf("FAIL: %v", err)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish selects the metrics of the run's mode and fails if the workload
// left any of them unset.
func (r *report) finish(defs []metricDef) (result, error) {
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// layerMetrics names the per-layer metrics each workload measures; the
// others read 0 on it, because the workload does not load that layer.
var layerMetrics = map[string][]string{
	"table6_full": {
		"game.play_pure_ns", "game.play_ns", "game.matches_evaluated",
		"sim.game_play_s", "sim.game_play_imbalance", "sim.parallel_efficiency",
		"sim.worker_wait_s", "sim.nature_untimed_s", "sim.comm_share",
		"mpi.msgs_per_gen", "mpi.bytes_per_gen", "mpi.bcast_us", "mpi.reduce_us",
		"mpi.wire_frames_per_gen", "mpi.wire_bytes_per_gen", "mpi.wire_resends", "mpi.wire_decode_errs",
		"mpi.pingpong_unix_us", "mpi.pingpong_inproc_us",
		"bench.trace_overhead_frac",
	},
	"serve_durable": {
		"game.matches_evaluated", "game.cache_hit_ns", "game.cache_hit_rate", "game.cache_evictions",
		"strategy.fingerprint_ns", "analysis.markov_pair_ns", "checkpoint.write_ms", "checkpoint.bytes",
		"server.submit_ms", "server.queue_wait_ms", "server.result_ms", "server.overhead_ms",
		"server.sse_reconnects_per_job", "server.cost_ratio_cached", "server.cost_ratio_exact",
		"server.fsync_ms", "bench.trace_overhead_frac",
	},
}

// measures reports whether the workload measures the per-layer metric.
func measures(workload, metric string) bool {
	for _, m := range layerMetrics[workload] {
		if m == metric {
			return true
		}
	}
	return false
}
