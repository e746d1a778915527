package experiments

import (
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// tfrcPoint compares TCP and TFRC populations at one contention level
// (the §1 claim: TFRC's equation rate is at least √(3/2) packets per
// RTT, so it cannot adapt to sub-packet fair shares any better than
// TCP — "the only way to reduce the rate further is by adding
// timeouts").
type tfrcPoint struct {
	Transport    string // "tcp" or "tfrc"
	FairShareBps float64
	Flows        int
	ShortJFI     float64
	LossRate     float64
	Utilization  float64
}

// tfrcComparison runs homogeneous TCP and TFRC populations through
// the same droptail bottleneck at sub-packet fair shares.
func tfrcComparison(scale Scale, seed int64) sweep[tfrcPoint] {
	duration := scale.duration(400*sim.Second, 80*sim.Second)
	const bw = 200 * link.Kbps
	var cells []tfrcPoint
	for _, share := range []float64{2500, 5000, 10000} {
		n := int(float64(bw) / share)
		for _, transport := range []string{"tcp", "tfrc"} {
			cells = append(cells, tfrcPoint{Transport: transport, Flows: n, FairShareBps: float64(bw) / float64(n)})
		}
	}
	points := runSweep(cells, func(_ int, p tfrcPoint) tfrcPoint {
		tcpFlows, tfrcFlows := p.Flows, 0
		if p.Transport == "tfrc" {
			tcpFlows, tfrcFlows = 0, p.Flows
		}
		net, slices := bulkDumbbell(topology.Config{
			Seed:      seed,
			Bandwidth: bw,
			Queue:     topology.DropTail,
			RTTJitter: 0.25,
		}, tcpFlows, duration, func(net *topology.Network) {
			for i := 0; i < tfrcFlows; i++ {
				net.AddTFRCFlow(-1, sim.Time(i)*50*sim.Millisecond)
			}
		})
		p.ShortJFI = net.Slicer.MeanSliceJFI(1, slices)
		p.LossRate = net.LossRate()
		p.Utilization = net.Utilization()
		return p
	})
	return sweep[tfrcPoint]{points: points, cols: []column[tfrcPoint]{
		{"transport", func(p tfrcPoint) string { return p.Transport }},
		{"fairshare(bps)", func(p tfrcPoint) string { return f0(p.FairShareBps) }},
		{"flows", func(p tfrcPoint) string { return dec(p.Flows) }},
		{"shortJFI", func(p tfrcPoint) string { return f3(p.ShortJFI) }},
		{"loss", func(p tfrcPoint) string { return f3(p.LossRate) }},
		{"util", func(p tfrcPoint) string { return f2(p.Utilization) }},
	}}
}

func tfrc(env Env) Report {
	s := tfrcComparison(env.Scale, env.Seed)
	return Report{s.render(env.CSV), s.metrics()}
}
