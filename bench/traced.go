package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"taq"
	"taq/internal/obs"
)

// baseReps is how many of a traced pass's repetitions run untraced
// first: they supply the counts (source C) and the throughput the
// traced repetitions are compared with to give the tracing overhead.
const baseReps = 3

// profileHz is the CPU profiler's sampling rate in the traced pass. The
// default 100 Hz would give the six seconds of traced repetitions under
// the thousand samples the layer shares need; and asking for more than
// the kernel's 250 Hz timer tick gets no more than that.
const profileHz = 250

// outDir is where a traced pass leaves its profile and spans.
var outDir = filepath.Join("bench", "out")

// runTraced is the per-layer pass: never used for end-to-end numbers.
// One set-up and warm-up, baseReps untraced repetitions, then timedReps
// more under the CPU profiler with the harness's spans on, then the
// isolated drivers and the workload's rerun comparisons.
func runTraced(spec wlSpec, seed int64, scale float64) wlResult {
	res := wlResult{Workload: spec.name, Seed: seed, Traced: true, Correct: true}
	w, warm, _, setupWall := res.setUp(spec, seed, scale, 1)
	defer w.close()

	outs := make([]repOut, baseReps+timedReps)
	res.runReps(w, outs[:baseReps], 0, seed, nil)

	tr := newTracer()
	var prof bytes.Buffer
	// StartCPUProfile insists on 100 Hz; a rate set beforehand survives
	// it (the runtime logs that it kept the earlier rate).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		res.fail(0, "cpu profile: %v", err)
	}
	res.runReps(w, outs, baseReps, seed, tr)
	pprof.StopCPUProfile()

	// Tracing only watches: the traced repetition at the warm-up's
	// sub-seed must still reproduce its digest.
	res.checkDigest(spec, &warm, &outs[timedReps-1])
	base, traced := outs[:baseReps], outs[baseReps:]

	m := map[string]value{}
	put := func(v value) { m[v.Name] = v }
	put(single("setup_wall_s", setupWall))

	shares, samples, err := cpuSharesOf(prof.Bytes())
	if err != nil {
		res.fail(0, "%v", err)
	}
	if samples < 1000 && scale >= 1 {
		res.fail(0, "cpu profile has %d samples, want >= 1000", samples)
	}
	for _, l := range cpuLayers {
		v := single("cpu_share."+l, shares[l])
		v.N = int(samples)
		put(v)
	}

	for _, v := range layerCounts(base, w) {
		put(v)
	}
	for _, v := range spanMetrics(tr, traced) {
		put(v)
	}
	for _, v := range append(endToEnd(base), quality(base, &res)...) {
		put(v)
	}
	// Normalised, so that a slow spell of the host between the two
	// halves of the pass is not read as the cost of tracing.
	if tracedPPS := normPPS(traced); tracedPPS > 0 {
		put(single("trace_overhead_pct", (normPPS(base)/tracedPPS-1)*100))
	}
	for _, v := range runDrivers(scale) {
		put(v)
	}
	if spec.reruns != nil {
		for _, v := range spec.reruns(&res, seed, scale, base) {
			put(v)
		}
	}

	for _, d := range perLayerDefs {
		v, ok := m[d.name]
		if !ok {
			v = single(d.name, 0) // not taken on this workload
		}
		res.Metrics = append(res.Metrics, v)
	}
	for _, d := range endToEndDefs {
		if !d.gated {
			res.Metrics = append(res.Metrics, m[d.name])
		}
	}
	res.withUnits()

	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", spec.name, seed))
	if err := tr.write(stem + "-spans.csv"); err != nil {
		res.fail(0, "spans: %v", err)
	}
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		res.fail(0, "profile: %v", err)
	}
	return res
}

func normPPS(outs []repOut) float64 {
	v, _ := find(endToEnd(outs), "norm_pkts_per_s")
	return v.Value
}

// layerCounts are the deterministic counts (source C) of the untraced
// repetitions.
func layerCounts(outs []repOut, w workload) []value {
	var offered, dropped, events, timeouts, repTimeouts uint64
	var wall float64
	var util, imbalance []float64
	for i := range outs {
		o := &outs[i]
		offered += o.offered
		dropped += o.dropped
		events += o.events
		timeouts += o.timeouts
		repTimeouts += o.repTimeouts
		wall += o.wall
		util = append(util, o.util)
		imbalance = append(imbalance, o.imbalance)
	}
	per := func(n uint64, scale float64) float64 {
		if offered == 0 {
			return 0
		}
		return float64(n) * scale / float64(offered)
	}
	vs := []value{
		single("sim.events_per_pkt", per(events, 1)),
		single("sim.events_per_wall_s", float64(events)/wall),
		single("tcp.timeouts_per_kpkt", per(timeouts, 1000)),
		single("tcp.rep_timeouts_per_kpkt", per(repTimeouts, 1000)),
		single("link.utilization", mean(util)),
		single("core.drop_share", per(dropped, 1)),
		single("core.tracked_flows", float64(outs[len(outs)-1].tracked)),
		single("emu.shard_imbalance", mean(imbalance)),
	}
	if mb, ok := w.(*mbox); ok {
		vs = append(vs, single("core.bytes_per_flow", mb.bytesPerFlow))
	}
	return vs
}

// spanMetrics reads the per-call latencies (source S) off the spans.
func spanMetrics(tr *tracer, traced []repOut) []value {
	pct := func(name string, k spanKind, q, div float64) value {
		d := tr.durations(k)
		v := single(name, quantile(d, q)/div)
		v.N = len(d)
		return v
	}
	ticks := tr.durations(spanScanTick)
	var ctl, simSecs float64
	for _, d := range append(tr.durations(spanRunUntil), ticks...) {
		ctl += d
	}
	for i := range traced {
		simSecs += traced[i].simSecs
	}
	vs := []value{
		pct("core.enqueue_accept_ns_p50", spanEnqueueAccept, 0.5, 1),
		pct("core.enqueue_accept_ns_p99", spanEnqueueAccept, 0.99, 1),
		pct("core.enqueue_drop_ns_p50", spanEnqueueDrop, 0.5, 1),
		pct("core.enqueue_drop_ns_p99", spanEnqueueDrop, 0.99, 1),
		pct("core.dequeue_ns_p50", spanDequeue, 0.5, 1),
		pct("core.dequeue_ns_p99", spanDequeue, 0.99, 1),
		pct("core.reverse_ns_p50", spanReverse, 0.5, 1),
		pct("core.scan_tick_ms_p50", spanScanTick, 0.5, 1e6),
		pct("core.scan_tick_ms_p99", spanScanTick, 0.99, 1e6),
		pct("core.scan_tick_ms_max", spanScanTick, 1, 1e6),
		pct("emu.post_batch_us_p50", spanPost, 0.5, 1e3),
		pct("emu.timer_late_us_p50", spanTimerLate, 0.5, 1e3),
		pct("emu.timer_late_us_p99", spanTimerLate, 0.99, 1e3),
	}
	if len(ticks) > 0 && simSecs > 0 {
		vs = append(vs, single("core.ctl_ms_per_sim_s", ctl/1e6/simSecs))
	}
	return vs
}

// obsReruns reruns the dumbbell's first repetitions in turn plain, with
// the metrics registry on, and with an event recorder on, and reports
// what each kind of telemetry costs in normalised CPU per packet against
// the plain rerun beside it. Telemetry only watches, so every rerun must
// reproduce the digest of the repetition it repeats.
func obsReruns(r *wlResult, seed int64, scale float64, base []repOut) []value {
	cpuPerPkt := func(name string, i int, instrument func(*taq.Network)) float64 {
		w := dumbbellTAQ(scale)
		w.instrument = instrument
		o := w.rep(subSeed(seed, i), nil)
		r.absorb(name, &o)
		if o.digest != base[i].digest {
			r.fail(o.attempted, "%s: sim_digest %016x != %016x of repetition %d", name, o.digest, base[i].digest, i)
		}
		return o.cpu / float64(o.offered) / o.slowdown
	}
	var metricsCost, eventsCost []float64
	for i := 0; i < 2; i++ {
		off := cpuPerPkt("telemetry off", i, nil)
		metricsOn := cpuPerPkt("metrics on", i, func(n *taq.Network) { n.EnableMetrics() })
		eventsOn := cpuPerPkt("events on", i, func(n *taq.Network) { n.EnableObservability(obs.NewRecorder(nil, obs.DefaultRingSize)) })
		metricsCost = append(metricsCost, (metricsOn/off-1)*100)
		eventsCost = append(eventsCost, (eventsOn/off-1)*100)
	}
	return []value{
		single("obs.metrics_on_cost_pct", mean(metricsCost)),
		single("obs.events_on_cost_pct", mean(eventsCost)),
	}
}

// shardReruns runs the same total work through a one-shard bank: the
// ratio says whether the second shard bought parallelism.
func shardReruns(r *wlResult, seed int64, scale float64, base []repOut) []value {
	w := newEmuShards(1, int(emuPacketsPerRep*scale))
	w.build(seed, nil)
	defer w.close()
	outs := make([]repOut, baseReps)
	r.runReps(w, outs, 0, seed, nil)
	one := normPPS(outs[1:]) // outs[0] warmed the flow table up
	if one == 0 {
		return nil
	}
	return []value{single("emu.scale_2v1", normPPS(base)/one)}
}
