package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// fairnessPoint is one point of the JFI-vs-fair-share curves in
// Figs 2, 8 and §2.4.
type fairnessPoint struct {
	Queue        topology.QueueKind
	Bandwidth    link.Bps
	Flows        int
	FairShareBps float64
	ShortJFI     float64 // mean Jain index over 20 s slices
	LongJFI      float64 // Jain index of whole-run totals
	Utilization  float64
	LossRate     float64
}

// fairnessSpec is the one sweep behind Figs 2 and 8 and the §2.4
// equivalence check: N bulk flows per (queue, bandwidth, fair share)
// cell, N set by the target per-flow share. The figures differ only in
// queue kinds and grid.
type fairnessSpec struct {
	queues     []topology.QueueKind
	bandwidths []link.Bps
	shares     []float64 // target per-flow fair shares (bps)
	// runtime at scale 1 and its floor: the paper slices 400 s
	// steady-state runs into 20 s windows.
	runtime, floor sim.Time
}

// The paper's Fig 2/8 grid: 200..1000 Kbps, fair shares 2.5..50 Kbps.
var (
	paperBandwidths = []link.Bps{200 * link.Kbps, 400 * link.Kbps, 600 * link.Kbps, 800 * link.Kbps, 1000 * link.Kbps}
	paperShares     = []float64{2500, 5000, 10000, 20000, 30000, 40000, 50000}
)

// shortTerm is the Fig 2/8 grid for the given queues; longTerm is
// Fig 2's long-slice variant (paper: 10000 s at 200 and 1000 Kbps).
func shortTerm(queues ...topology.QueueKind) fairnessSpec {
	return fairnessSpec{queues, paperBandwidths, paperShares, 400 * sim.Second, 80 * sim.Second}
}

func longTerm(queues ...topology.QueueKind) fairnessSpec {
	return fairnessSpec{queues, []link.Bps{200 * link.Kbps, 1000 * link.Kbps}, paperShares, 10000 * sim.Second, 200 * sim.Second}
}

// run enumerates the grid queue-major, then bandwidth, then share, and
// evaluates the cells through the worker pool; each builds its own
// seeded engine.
func (sp fairnessSpec) run(scale Scale, seed int64) []fairnessPoint {
	duration := scale.duration(sp.runtime, sp.floor)
	var cells []fairnessPoint
	for _, qk := range sp.queues {
		for _, bw := range sp.bandwidths {
			for _, share := range sp.shares {
				if n := int(float64(bw) / share); n >= 2 {
					cells = append(cells, fairnessPoint{Queue: qk, Bandwidth: bw, Flows: n})
				}
			}
		}
	}
	return runSweep(cells, func(_ int, p fairnessPoint) fairnessPoint {
		net, slices := bulkDumbbell(topology.Config{
			Seed:      seed,
			Bandwidth: p.Bandwidth,
			Queue:     p.Queue,
			RTTJitter: 0.25, // variable RTTs, as in the paper's validation runs
		}, p.Flows, duration)
		const warmup = 1 // skip the first slice (slow-start transient)
		p.FairShareBps = float64(p.Bandwidth) / float64(p.Flows)
		p.ShortJFI = net.Slicer.MeanSliceJFI(warmup, slices)
		p.LongJFI = net.Slicer.TotalJFI(warmup, slices)
		p.Utilization = net.Utilization()
		p.LossRate = net.LossRate()
		return p
	})
}

// fairnessTable renders one queue's sweep in the paper's axes.
func fairnessTable(qk topology.QueueKind, points []fairnessPoint) sweep[fairnessPoint] {
	return sweep[fairnessPoint]{
		title:  fmt.Sprintf("Queue: %s\n", qk),
		points: points,
		cols: []column[fairnessPoint]{
			{"bandwidth", func(p fairnessPoint) string { return kbps(p.Bandwidth) }},
			{"flows", func(p fairnessPoint) string { return dec(p.Flows) }},
			{"fairshare(bps)", func(p fairnessPoint) string { return f0(p.FairShareBps) }},
			{"shortJFI", func(p fairnessPoint) string { return f3(p.ShortJFI) }},
			{"longJFI", func(p fairnessPoint) string { return f3(p.LongJFI) }},
			{"util", func(p fairnessPoint) string { return f2(p.Utilization) }},
			{"loss", func(p fairnessPoint) string { return f3(p.LossRate) }},
		},
	}
}

// subPacketShortJFI averages the short-term JFI over the points whose
// fair share is below 10 Kbps, the sub-3-packet regime where
// short-term fairness collapses.
func subPacketShortJFI(points []fairnessPoint) float64 {
	sum, n := 0.0, 0
	for _, p := range points {
		if p.FairShareBps < 10000 {
			sum += p.ShortJFI
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fairnessFigure is the JFI-vs-fair-share row for one discipline:
// Fig 2 with DropTail (plus its long-slice curves), Fig 8 with TAQ.
func fairnessFigure(qk topology.QueueKind, withLongTerm bool) func(Env) Report {
	return func(env Env) Report {
		pts := shortTerm(qk).run(env.Scale, env.Seed)
		out := fairnessTable(qk, pts).render(env.CSV)
		m := map[string]float64{
			"points":              float64(len(pts)),
			"subpacket_short_jfi": subPacketShortJFI(pts),
		}
		if withLongTerm {
			lt := longTerm(qk).run(env.Scale, env.Seed)
			out += "\nlong-term slices:\n" + fairnessTable(qk, lt).render(env.CSV)
			m["long_term_points"] = float64(len(lt))
			m["long_term_short_jfi"] = subPacketShortJFI(lt)
		}
		return Report{out + "\n", m}
	}
}

// redSfq is the §2.4 equivalence check: the Fig 2 configuration under
// DropTail, RED and SFQ in the deep sub-packet regime only. With
// ≲0.25 pkt/RTT per flow each flow holds at most one buffered packet,
// the granularity at which §2.4 says AQM choices stop mattering.
func redSfq(env Env) Report {
	s := redSfqSweep(env.Scale, env.Seed)
	return Report{s.render(env.CSV), s.metrics()}
}

func redSfqSweep(scale Scale, seed int64) sweep[fairnessPoint] {
	sp := shortTerm(topology.DropTail, topology.RED, topology.SFQ)
	sp.bandwidths, sp.shares = []link.Bps{200 * link.Kbps}, []float64{2500, 5000}
	return sweep[fairnessPoint]{
		points: sp.run(scale, seed),
		cols: []column[fairnessPoint]{
			{"queue", func(p fairnessPoint) string { return string(p.Queue) }},
			{"fairshare(bps)", func(p fairnessPoint) string { return f0(p.FairShareBps) }},
			{"shortJFI", func(p fairnessPoint) string { return f3(p.ShortJFI) }},
			{"util", func(p fairnessPoint) string { return f2(p.Utilization) }},
		},
	}
}
