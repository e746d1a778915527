package experiments

import (
	"fmt"
	"math"
	"sort"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/workload"
)

// shortFlowPoint is one short flow's outcome (Fig 10).
type shortFlowPoint struct {
	Packets      int
	DownloadSecs float64
	Done         bool
}

// shortFlows reproduces Fig 10: 32 short flows of 2–80 packets
// injected against 50 long-running background flows on a 1 Mbps
// bottleneck (20 Kbps fair share). Under TAQ the NewFlow queue gives
// short flows predictable, roughly size-linear download times.
func shortFlows(qk topology.QueueKind, scale Scale, seed int64) sweep[shortFlowPoint] {
	warm := scale.duration(100*sim.Second, 40*sim.Second)
	net := topology.MustNew(topology.Config{
		Seed:      seed,
		Bandwidth: 1000 * link.Kbps,
		Queue:     qk,
		RTTJitter: 0.25,
	})
	workload.AddBulkFlows(net, 50, 50*sim.Millisecond)

	// 32 short flows with sizes spread across 2..80 packets, injected
	// one per 5 seconds once the background is warm.
	var results []*workload.ShortFlowResult
	for i := 0; i < 32; i++ {
		size := 2 + (78*i)/31
		at := warm + sim.Time(i)*5*sim.Second
		results = append(results, workload.AddShortFlow(net, size, at))
	}
	endOfInjection := warm + 32*5*sim.Second
	net.Run(endOfInjection + 120*sim.Second)

	s := sweep[shortFlowPoint]{
		title: fmt.Sprintf("Queue: %s\n", qk),
		cols: []column[shortFlowPoint]{
			{"packets", func(p shortFlowPoint) string { return dec(p.Packets) }},
			{"download(s)", func(p shortFlowPoint) string {
				if !p.Done {
					return "DNF"
				}
				return f2(p.DownloadSecs)
			}},
		},
	}
	for _, r := range results {
		p := shortFlowPoint{Packets: r.Segments, Done: r.Done}
		if r.Done {
			p.DownloadSecs = r.Duration().Seconds()
		}
		s.points = append(s.points, p)
	}
	sort.Slice(s.points, func(i, j int) bool { return s.points[i].Packets < s.points[j].Packets })
	return s
}

// completedFraction returns the fraction of short flows that finished.
func completedFraction(points []shortFlowPoint) float64 {
	done := 0
	for _, p := range points {
		if p.Done {
			done++
		}
	}
	if len(points) == 0 {
		return 0
	}
	return float64(done) / float64(len(points))
}

// sizeTimeCorrelation returns the Pearson correlation between flow size
// and download time over completed flows — Fig 10's "roughly linear"
// reading implies a strong positive correlation under TAQ.
func sizeTimeCorrelation(points []shortFlowPoint) float64 {
	var xs, ys []float64
	for _, p := range points {
		if p.Done {
			xs = append(xs, float64(p.Packets))
			ys = append(ys, p.DownloadSecs)
		}
	}
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func fig10(env Env) Report {
	s := shortFlows(topology.TAQ, env.Scale, env.Seed)
	done, corr := completedFraction(s.points), sizeTimeCorrelation(s.points)
	return Report{
		s.render(env.CSV) + fmt.Sprintf("completed: %.2f  size/time correlation: %.2f\n\n", done, corr),
		map[string]float64{"completed_fraction": done, "size_correlation": corr},
	}
}
