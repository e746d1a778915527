package experiments

import (
	"fmt"
	"strings"

	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/workload"
)

// histogramReport runs a canonical mixed workload (bulk flows plus a
// spread of short transfers) under TAQ with the metrics registry on,
// and renders each registry histogram as one p50/p90/p99 row per
// label. The table is the per-run artifact written alongside
// BENCH_results.json (taqbench -report-out); the headline percentiles
// are pinned by the baseline like any other row's metrics.
//
// Percentiles are nearest-rank over the shared log-bucket bounds, so
// for a fixed seed the table is deterministic down to the byte.
func histogramReport(env Env) Report {
	duration := env.Scale.duration(240*sim.Second, 20*sim.Second)
	bulk := env.Scale.count(40, 8)
	shorts := env.Scale.count(80, 12)

	net := topology.MustNew(topology.Config{
		Seed:       env.Seed,
		Queue:      topology.TAQ,
		SliceWidth: duration / 4,
	})
	net.EnableMetrics()
	workload.AddBulkFlows(net, bulk, 50*sim.Millisecond)
	// Short transfers spread over the middle of the run, cycling
	// through sizes that land in all three FCT size classes.
	for i := 0; i < shorts; i++ {
		at := duration * sim.Time(i+1) / sim.Time(shorts+2)
		workload.AddShortFlow(net, 2+(i%3)*12, at)
	}
	net.Run(duration)

	snap := net.Metrics.Snapshot()
	var out strings.Builder
	fmt.Fprintf(&out, "histogram percentiles (TAQ, %d bulk + %d short flows, %s):\n",
		bulk, shorts, duration)
	m := map[string]float64{}
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		for li := range h.Counts {
			series := h.Name
			if h.Label != "" {
				series = fmt.Sprintf("%s{%s=%q}", h.Name, h.Label, h.LabelVals[li])
			}
			fmt.Fprintf(&out, "  %-44s n=%-6d", series, h.Counts[li])
			for _, q := range []float64{0.50, 0.90, 0.99} {
				fmt.Fprintf(&out, "  p%02.0f=%-12s", q*100, h.Quantile(li, q))
			}
			out.WriteString("\n")
		}
	}
	// Headline metrics: FCT percentiles per size class plus total
	// completions — the numbers the paper's latency claims rest on.
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		if h.Name != "taq_fct_seconds" {
			continue
		}
		var total uint64
		for li := range h.Counts {
			total += h.Counts[li]
			key := "fct_" + h.LabelVals[li]
			m[key+"_count"] = float64(h.Counts[li])
			if h.Counts[li] > 0 {
				m[key+"_p50"] = h.Quantile(li, 0.50).Seconds()
				m[key+"_p99"] = h.Quantile(li, 0.99).Seconds()
			}
		}
		m["fct_completions"] = float64(total)
	}
	for i := range snap.Counters {
		c := &snap.Counters[i]
		if c.Name != "taq_served_total" && c.Name != "taq_drops_total" {
			continue
		}
		var total uint64
		for _, v := range c.Values {
			total += v
		}
		m[strings.TrimSuffix(strings.TrimPrefix(c.Name, "taq_"), "_total")] = float64(total)
	}
	return Report{out.String(), m}
}
