package main

// metricDef describes one metric the benchmark prints. BENCHMARK.json
// lists the same names; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // better when higher
	// bound is the share of the baseline's median by which the metric
	// may worsen before -compare calls it a regression, and floor an
	// absolute change below which it never does (end-to-end only).
	bound, floor float64
	// gated metrics are the driver's end_to_end list: defined and never
	// zero on every workload. The other end-to-end metrics are zero or
	// undefined on some workload, so the driver sees them beside the
	// per-layer metrics of the traced pass; -compare bounds them all.
	gated bool
	// info metrics are printed and recorded but never judged: the raw
	// wall-clock readings, which say more about the host than about the
	// program.
	info bool
	// src is how a per-layer metric is taken: D isolated driver,
	// C count read after the untraced repetitions, S harness span of the
	// traced repetitions, P CPU-profile share, X rerun comparison.
	src string
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.2, gated: true},
	{name: "setup_wall_s", unit: "s", info: true},
	{name: "pkts_per_wall_s", unit: "pkt/s", higher: true, info: true},
	{name: "cpu_ns_per_pkt", unit: "ns", info: true},
	{name: "norm_pkts_per_s", unit: "pkt/s", higher: true, bound: 0.15, gated: true},
	{name: "norm_cpu_ns_per_pkt", unit: "ns", bound: 0.12, gated: true},
	{name: "host_slowdown", unit: "ratio", info: true},
	{name: "allocs_per_pkt", unit: "allocs", bound: 0.02, floor: 0.01},
	{name: "heap_mb", unit: "MB", bound: 0.15, gated: true},
	{name: "short_jfi", unit: "ratio", higher: true, bound: 0.02},
	{name: "fct_s_p50", unit: "sim-s", bound: 0.05},
	{name: "fct_s_p99", unit: "sim-s", bound: 0.05},
	{name: "ops_failed_frac", unit: "ratio", bound: 0},
}

var cpuLayers = []string{"sim", "tcp", "link", "queue", "core", "obs", "metrics", "topology", "workload", "emu", "other", "harness", "runtime_bg"}

var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: "cpu_share." + l, unit: "ratio", src: "P"})
	}
	return append(defs, []metricDef{
		{name: "sim.events_per_pkt", unit: "count", src: "C"},
		{name: "sim.events_per_wall_s", unit: "1/s", higher: true, src: "C"},
		{name: "sim.after_fire_ns", unit: "ns", src: "D"},
		{name: "sim.reschedule_ns", unit: "ns", src: "D"},
		{name: "tcp.sender_ack_ns", unit: "ns", src: "D"},
		{name: "tcp.receiver_data_ns", unit: "ns", src: "D"},
		{name: "tcp.sender_rto_ns", unit: "ns", src: "D"},
		{name: "tcp.timeouts_per_kpkt", unit: "count", src: "C"},
		{name: "tcp.rep_timeouts_per_kpkt", unit: "count", src: "C"},
		{name: "link.enqueue_deliver_ns", unit: "ns", src: "D"},
		{name: "link.utilization", unit: "ratio", higher: true, src: "C"},
		{name: "queue.droptail_ns", unit: "ns", src: "D"},
		{name: "queue.red_ns", unit: "ns", src: "D"},
		{name: "queue.sfq_ns", unit: "ns", src: "D"},
		{name: "core.enqueue_accept_ns_p50", unit: "ns", src: "S"},
		{name: "core.enqueue_accept_ns_p99", unit: "ns", src: "S"},
		{name: "core.enqueue_drop_ns_p50", unit: "ns", src: "S"},
		{name: "core.enqueue_drop_ns_p99", unit: "ns", src: "S"},
		{name: "core.dequeue_ns_p50", unit: "ns", src: "S"},
		{name: "core.dequeue_ns_p99", unit: "ns", src: "S"},
		{name: "core.reverse_ns_p50", unit: "ns", src: "S"},
		{name: "core.scan_tick_ms_p50", unit: "ms", src: "S"},
		{name: "core.scan_tick_ms_p99", unit: "ms", src: "S"},
		{name: "core.scan_tick_ms_max", unit: "ms", src: "S"},
		{name: "core.ctl_ms_per_sim_s", unit: "ms", src: "S"},
		{name: "core.drop_share", unit: "ratio", src: "C"},
		{name: "core.tracked_flows", unit: "count", src: "C"},
		{name: "core.bytes_per_flow", unit: "B", src: "C"},
		{name: "obs.counter_add_ns", unit: "ns", src: "D"},
		{name: "obs.hist_observe_ns", unit: "ns", src: "D"},
		{name: "obs.snapshot_us", unit: "us", src: "D"},
		{name: "obs.recorder_event_ns", unit: "ns", src: "D"},
		{name: "obs.metrics_on_cost_pct", unit: "%", src: "X"},
		{name: "obs.events_on_cost_pct", unit: "%", src: "X"},
		{name: "metrics.slicer_record_ns", unit: "ns", src: "D"},
		{name: "metrics.cdf_add_ns", unit: "ns", src: "D"},
		{name: "metrics.cdf_percentile_ms", unit: "ms", src: "D"},
		{name: "topology.add_flow_us", unit: "us", src: "D"},
		{name: "topology.bytes_per_flow", unit: "B", src: "D"},
		{name: "workload.replay_ns_per_rec", unit: "ns", src: "D"},
		{name: "trace.generate_ns_per_rec", unit: "ns", src: "D"},
		{name: "emu.post_ns", unit: "ns", src: "D"},
		{name: "emu.now_ns", unit: "ns", src: "D"},
		{name: "emu.post_batch_us_p50", unit: "us", src: "S"},
		{name: "emu.timer_late_us_p50", unit: "us", src: "S"},
		{name: "emu.timer_late_us_p99", unit: "us", src: "S"},
		{name: "emu.scale_2v1", unit: "ratio", higher: true, src: "X"},
		{name: "emu.shard_imbalance", unit: "ratio", src: "C"},
		{name: "trace_overhead_pct", unit: "%", src: "X"},
	}...)
}()

func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// withUnits stamps each metric with its unit from the tables.
func (r *wlResult) withUnits() {
	for i := range r.Metrics {
		if d, ok := defOf(r.Metrics[i].Name); ok {
			r.Metrics[i].Unit = d.unit
		}
	}
}
