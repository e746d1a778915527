package experiments

import (
	"fmt"
	"sort"

	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/sim"
	"taq/internal/topology"
)

// sliceStat summarizes one time slice of a run, per §2.3.
type sliceStat struct {
	Slice int
	// ShutdownFrac is the fraction of live flows that delivered nothing
	// in this slice (the "completely shut down" population).
	ShutdownFrac float64
	// Top80Frac is the smallest fraction of live flows that together
	// delivered ≥80% of the slice's bytes (the hog population); 0 when
	// nothing was delivered.
	Top80Frac float64
	// DeliveredBytes is the slice's total delivered volume.
	DeliveredBytes int64
}

// sliceStats reads slices [from, to) of s.
func sliceStats(s *metrics.Slicer, from, to int) []sliceStat {
	var out []sliceStat
	for i := from; i < to; i++ {
		shares := s.SliceShares(i)
		sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
		total, silent := 0.0, 0
		for _, b := range shares {
			total += b
			if b == 0 {
				silent++
			}
		}
		acc, hogs := 0.0, 0
		for acc < 0.8*total {
			acc += shares[hogs]
			hogs++
		}
		st := sliceStat{Slice: i, DeliveredBytes: int64(total)}
		if n := float64(len(shares)); n > 0 {
			st.ShutdownFrac, st.Top80Frac = float64(silent)/n, float64(hogs)/n
		}
		out = append(out, st)
	}
	return out
}

// meanFracs averages ShutdownFrac and Top80Frac over stats.
func meanFracs(stats []sliceStat) (shutdown, top80 float64) {
	if len(stats) == 0 {
		return 0, 0
	}
	for _, st := range stats {
		shutdown += st.ShutdownFrac
		top80 += st.Top80Frac
	}
	n := float64(len(stats))
	return shutdown / n, top80 / n
}

// pcapAnalysis reproduces §2.3's trace examination: "over 20-second
// time slices roughly 30% of the flows are completely shut down and
// roughly 40% of the flows consume more than 80% of the link
// bandwidth" — the emergent arbitrary admission control of DropTail.
// It runs the Fig 2 sub-packet configuration (fair share ≈ 5 Kbps) and
// reads the per-20 s-slice shutdown and concentration fractions off
// the network's per-flow delivered bytes.
func pcapAnalysis(qk topology.QueueKind, scale Scale, seed int64) sweep[sliceStat] {
	const flows = 120 // 5 Kbps ≈ 0.25 pkt/RTT each
	duration := scale.duration(600*sim.Second, 200*sim.Second)
	net, slices := bulkDumbbell(topology.Config{
		Seed:      seed,
		Bandwidth: 600 * link.Kbps,
		Queue:     qk,
		RTTJitter: 0.25,
	}, flows, duration)

	// Skip the first slice (startup transient).
	stats := sliceStats(net.Slicer, 1, slices)
	shutdown, top80 := meanFracs(stats)
	return sweep[sliceStat]{
		title: fmt.Sprintf("Queue: %s, %d flows (20s slices)\n", qk, flows) +
			fmt.Sprintf("means: shutdown=%.2f top80=%.2f\n", shutdown, top80),
		points: stats,
		cols: []column[sliceStat]{
			{"slice", func(s sliceStat) string { return dec(s.Slice) }},
			{"shutdown frac", func(s sliceStat) string { return f2(s.ShutdownFrac) }},
			{"top-80% frac", func(s sliceStat) string { return f2(s.Top80Frac) }},
			{"bytes", func(s sliceStat) string { return dec(s.DeliveredBytes) }},
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
