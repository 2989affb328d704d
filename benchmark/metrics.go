package main

import "fmt"

// metric is one reported number, in the form the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef mirrors one entry of BENCHMARK.json; benchmark_test.go checks
// the two lists agree name for name and unit for unit.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	Exact  bool    // a count that must repeat exactly for a given seed
}

// endToEnd are the metrics a user of the stack sees, measured with tracing
// off on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced pass's metrics. A workload reports 0 for a layer
// its op never enters — that zero is the "predicted flat" half of a claim.
var perLayer = []metricDef{
	// sched
	{Name: "sched.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.generate_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.actions", Unit: "count", Better: "lower", Exact: true},
	// costmodel
	{Name: "costmodel.new_ms", Unit: "ms", Better: "lower"},
	{Name: "costmodel.lowerbound_us", Unit: "us", Better: "lower"},
	{Name: "costmodel.lowerbound_calls", Unit: "count", Better: "lower", Exact: true},
	// sim
	{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "sim.deadline_aborts", Unit: "count", Better: "higher", Exact: true},
	{Name: "sim.aborted_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "sim.bubble_ratio_best", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "sim.hanayo_gain_pct", Unit: "%", Better: "higher", Exact: true},
	// memtrace / memmodel
	{Name: "memtrace.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "memtrace.exceeded_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "memmodel.estimate_ms", Unit: "ms", Better: "lower"},
	// core (sweep)
	{Name: "core.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.layer_coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.sims_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.bound_pruned", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.oom_rows", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.workers_scaling_x", Unit: "x", Better: "higher"},
	{Name: "core.plan_seq_per_s", Unit: "seq/s", Better: "higher", Exact: true},
	// core (tuner)
	{Name: "core.local_hit_sweep_us", Unit: "us", Better: "lower"},
	{Name: "core.remote_errors", Unit: "count", Better: "lower", Exact: true},
	// lru
	{Name: "lru.get_ns", Unit: "ns", Better: "lower"},
	{Name: "lru.put_ns", Unit: "ns", Better: "lower"},
	// cachewire
	{Name: "cachewire.frames_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "cachewire.multiget_us", Unit: "us", Better: "lower"},
	{Name: "cachewire.multiput_us", Unit: "us", Better: "lower"},
	{Name: "cachewire.get_us", Unit: "us", Better: "lower"},
	{Name: "cachewire.entry_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "cachewire.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "cachewire.ring_multiget_us", Unit: "us", Better: "lower"},
	{Name: "cachewire.ring_degraded_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	// cmd/hanayo-tuned
	{Name: "tuned.serve_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "tuned.cold_round_ms", Unit: "ms", Better: "lower"},
	{Name: "tuned.warm_round_ms", Unit: "ms", Better: "lower"},
	{Name: "tuned.worker_ms_max", Unit: "ms", Better: "lower"},
	{Name: "tuned.worker_ms_min", Unit: "ms", Better: "lower"},
	{Name: "tuned.shard_imbalance_x", Unit: "x", Better: "lower"},
	{Name: "tuned.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "tuned.spawn_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "tuned.cold_sims", Unit: "count", Better: "lower", Exact: true},
	{Name: "tuned.warm_sims", Unit: "count", Better: "lower", Exact: true},
	// runtime / exec
	{Name: "runtime.step_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "exec.sim_idle_delta", Unit: "ratio", Better: "lower"},
	{Name: "runtime.peak_act_kb", Unit: "KiB", Better: "lower", Exact: true},
	{Name: "runtime.step_ms.dapple", Unit: "ms", Better: "lower"},
	{Name: "runtime.step_ms.zbh1", Unit: "ms", Better: "lower"},
	{Name: "runtime.single_worker_step_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.pipeline_speedup_x", Unit: "x", Better: "higher"},
	{Name: "runtime.abort_ms", Unit: "ms", Better: "lower"},
	// comm
	{Name: "comm.messages_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "comm.wait_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.prefetch_hit_share", Unit: "ratio", Better: "higher"},
	// nn / tensor / autograd
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "nn.fwd_bwd_ms", Unit: "ms", Better: "lower"},
	// core (elastic) / cluster
	{Name: "core.session_start_ms", Unit: "ms", Better: "lower"},
	{Name: "core.healthy_step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rerank_sims", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.rerank_seeded", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.event_replan_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.apply_us", Unit: "us", Better: "lower"},
	// harness
	{Name: "harness.calib_matmul256_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "harness.op_ms_max", Unit: "ms", Better: "lower"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "harness.nproc", Unit: "count", Better: "higher", Exact: true},
	{Name: "harness.fail_share", Unit: "ratio", Better: "lower", Exact: true},
}

// metricSet collects one pass's numbers against a fixed definition list:
// set rejects names the list does not have, and fill reports every listed
// metric, with 0 for the ones the workload's op never touches.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetrics(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
}

func (m *metricSet) fill() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
