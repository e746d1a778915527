package experiments

import (
	"fmt"

	"taq/internal/capture"
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// pcapAnalysis reproduces §2.3's trace examination: "over 20-second
// time slices roughly 30% of the flows are completely shut down and
// roughly 40% of the flows consume more than 80% of the link
// bandwidth" — the emergent arbitrary admission control of DropTail.
// It records a packet trace of the Fig 2 sub-packet configuration
// (fair share ≈ 5 Kbps) and computes the per-20 s-slice shutdown and
// concentration fractions.
func pcapAnalysis(qk topology.QueueKind, scale Scale, seed int64) sweep[capture.SliceStat] {
	const flows = 120 // 5 Kbps ≈ 0.25 pkt/RTT each
	duration := scale.duration(600*sim.Second, 200*sim.Second)
	net, _ := bulkDumbbell(topology.Config{
		Seed:      seed,
		Bandwidth: 600 * link.Kbps,
		Queue:     qk,
		RTTJitter: 0.25,
	}, flows, duration, (*topology.Network).EnableCapture)

	stats := capture.Analyze(net.Capture.Events, 20*sim.Second, flows, duration)
	// Skip the first slice (startup transient).
	if len(stats) > 1 {
		stats = stats[1:]
	}
	return sweep[capture.SliceStat]{
		title: fmt.Sprintf("Queue: %s, %d flows (20s slices)\n", qk, flows) +
			fmt.Sprintf("means: shutdown=%.2f top80=%.2f\n", capture.MeanShutdownFrac(stats), capture.MeanTop80Frac(stats)),
		points: stats,
		cols: []column[capture.SliceStat]{
			{"slice", func(s capture.SliceStat) string { return dec(s.Slice) }},
			{"shutdown frac", func(s capture.SliceStat) string { return f2(s.ShutdownFrac) }},
			{"top-80% frac", func(s capture.SliceStat) string { return f2(s.Top80Frac) }},
			{"bytes", func(s capture.SliceStat) string { return dec(s.DeliveredBytes) }},
		},
	}
}

func pcap(env Env) Report {
	out := ""
	for _, qk := range []topology.QueueKind{topology.DropTail, topology.TAQ} {
		out += pcapAnalysis(qk, env.Scale, env.Seed).render(env.CSV) + "\n"
	}
	return Report{out, nil}
}
