package main

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

// endToEndMetrics are the metrics of the final line with --trace 0: the
// end-to-end metrics every workload has. BENCHMARK.json lists the same ones.
var endToEndMetrics = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// spanMetrics are the benchmark's spans around public calls, reported as the
// median per-iteration self time. Which end-to-end metric each should move,
// and on which workload:
//
//	engine.new_s, workloads.setup_s       setup_s on suite (no change on wide255, check)
//	paradigm.seq_run_s, smtx.run_s        wall_s, sim_minstr_per_s on suite
//	hmtx.run_s                            wall_s, sim_minstr_per_s on suite and wide255
//	experiments.doc_s                     wall_s on suite
//	prof.snapshot_s, metrics.flush_s      wall_s on observe
//	ckpt.capture_s, ckpt.write_s          ckpt_save_s on observe
//	ckpt.read_s, ckpt.restore_s           ckpt_resume_s on observe
//	check.run_s                           check_states_per_s on check
var spanMetrics = []string{
	"engine.new_s",
	"workloads.setup_s",
	"paradigm.seq_run_s",
	"hmtx.run_s",
	"smtx.run_s",
	"experiments.doc_s",
	"prof.snapshot_s",
	"metrics.flush_s",
	"ckpt.capture_s",
	"ckpt.write_s",
	"ckpt.read_s",
	"ckpt.restore_s",
	"check.run_s",
}

// countMetrics are per-iteration counts read from the public Stats(),
// Outcome, Addrs() and Summary, summed over the iteration's simulations, and
// the ratios derived from them. For a given seed the counts repeat exactly:
// they are outputs of the model, so their direction in BENCHMARK.json is
// nominal, and a change in one is a change of the simulated result.
// engine.host_ns_per_instr moves sim_minstr_per_s; memsys.touched_lines and
// ckpt.bytes_per_touched_line move ckpt_mb on observe.
var countMetrics = []metric{
	{"engine.instructions", "count"},
	{"engine.sim_cycles", "count"},
	{"engine.txs", "count"},
	{"engine.aborts", "count"},
	{"engine.commit_ratio", "ratio"},
	{"engine.host_ns_per_instr", "ns"},
	{"memsys.l1_hits", "count"},
	{"memsys.bus_messages", "count"},
	{"memsys.versions_created", "count"},
	{"memsys.touched_lines", "count"},
	{"ckpt.bytes_per_touched_line", "B/line"},
	{"metrics.series_samples", "count"},
	{"check.states", "count"},
	{"check.edges", "count"},
	{"check.new_state_ratio", "ratio"},
}

// runtimeMetrics come from runtime/metrics, per traced iteration. They move
// setup_s and peak_rss_mb on suite, and check_states_per_s on check.
var runtimeMetrics = []metric{
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.sched_latency_p50_us", "us"},
}

// perLayerMetrics lists every metric of the final line with --trace 1, in
// the order reported.
func perLayerMetrics() []metric {
	var ms []metric
	for _, n := range spanMetrics {
		ms = append(ms, metric{n, "s"})
	}
	ms = append(ms, countMetrics...)
	ms = append(ms, runtimeMetrics...)
	for _, n := range cpuBuckets {
		ms = append(ms, metric{n, "share"})
	}
	return append(ms, metric{"trace_overhead", "ratio"})
}
