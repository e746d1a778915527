package experiments

import (
	"sort"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/workload"
)

// iwPoint measures one (variant, initial window, queue) combination in
// the flow-initiation experiment.
type iwPoint struct {
	Label        string
	Queue        topology.QueueKind
	MedianSecs   float64
	P90Secs      float64
	TimeoutFrac  float64 // fraction of short flows that hit ≥1 RTO
	CompleteFrac float64
}

// initialWindowSweep probes §2.1's observation that with modern stacks
// (CUBIC, initial window 10) the congestion effect of SPK(k<10)
// regimes "is typically observed at flow initiation time due to packet
// losses": short flows opening with IW10 into a busy link blast a
// window the fair share cannot absorb. We compare IW2 NewReno against
// IW10 CUBIC short flows joining 40 background flows on 1 Mbps
// (≈1.25 pkt/RTT fair share), under DropTail and TAQ.
func initialWindowSweep(scale Scale, seed int64) sweep[iwPoint] {
	warm := scale.duration(100*sim.Second, 40*sim.Second)
	type job struct {
		qk      topology.QueueKind
		label   string
		variant tcp.Variant
		iw      float64
	}
	var jobs []job
	for _, qk := range []topology.QueueKind{topology.DropTail, topology.TAQ} {
		jobs = append(jobs,
			job{qk, "newreno-iw2", tcp.VariantNewReno, 2},
			job{qk, "cubic-iw10", tcp.VariantCubic, 10})
	}
	points := runSweep(jobs, func(_ int, j job) iwPoint {
		tcpCfg := tcp.DefaultConfig()
		tcpCfg.Variant = j.variant
		tcpCfg.InitialCwnd = j.iw
		net := topology.MustNew(topology.Config{
			Seed:      seed,
			Bandwidth: 1000 * link.Kbps,
			Queue:     j.qk,
			RTTJitter: 0.25,
			TCP:       tcpCfg,
		})
		workload.AddBulkFlows(net, 40, 50*sim.Millisecond)
		var shorts []*workload.ShortFlowResult
		for i := 0; i < 24; i++ {
			at := warm + sim.Time(i)*4*sim.Second
			shorts = append(shorts, workload.AddShortFlow(net, 20, at))
		}
		net.Run(warm + 24*4*sim.Second + 120*sim.Second)

		pt := iwPoint{Label: j.label, Queue: j.qk}
		var times []float64
		timeouts := 0
		for _, r := range shorts {
			if r.Timeouts() > 0 {
				timeouts++
			}
			if r.Done {
				times = append(times, r.Duration().Seconds())
			}
		}
		pt.TimeoutFrac = float64(timeouts) / float64(len(shorts))
		pt.CompleteFrac = float64(len(times)) / float64(len(shorts))
		if len(times) > 0 {
			// Lower nearest-rank percentiles of the completion times.
			sort.Float64s(times)
			pt.MedianSecs = times[int(0.50*float64(len(times)-1))]
			pt.P90Secs = times[int(0.90*float64(len(times)-1))]
		}
		return pt
	})
	return sweep[iwPoint]{points: points, cols: []column[iwPoint]{
		{"queue", func(p iwPoint) string { return string(p.Queue) }},
		{"variant", func(p iwPoint) string { return p.Label }},
		{"median(s)", func(p iwPoint) string { return f2(p.MedianSecs) }},
		{"p90(s)", func(p iwPoint) string { return f2(p.P90Secs) }},
		{"timeout frac", func(p iwPoint) string { return f2(p.TimeoutFrac) }},
		{"completed", func(p iwPoint) string { return f2(p.CompleteFrac) }},
	}}
}

// initialWindow's headline is how much of the IW10 initiation penalty
// TAQ removes: the DropTail-minus-TAQ fraction of cubic-iw10 short
// flows that took a timeout.
func initialWindow(env Env) Report {
	s := initialWindowSweep(env.Scale, env.Seed)
	iw10 := func(qk topology.QueueKind) float64 {
		p, _ := find(s.points, func(p iwPoint) bool { return p.Queue == qk && p.Label == "cubic-iw10" })
		return p.TimeoutFrac
	}
	m := s.metrics()
	m["timeout_frac_gap"] = iw10(topology.DropTail) - iw10(topology.TAQ)
	return Report{s.render(env.CSV), m}
}
