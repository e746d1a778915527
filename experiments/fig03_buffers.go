package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// bufferPoint is one point of Fig 3: the short-term fairness achieved
// by a DropTail buffer of the given size (in RTTs) at a given per-flow
// fair share (in packets per RTT).
type bufferPoint struct {
	FairSharePktsPerRTT float64
	BufferRTTs          float64
	ShortJFI            float64
	QueueDelayMax       sim.Time // worst-case queueing delay this buffer implies
	// MeasuredDelayP90 is the observed 90th-percentile queueing delay
	// in seconds — the latency actually paid for the buffer.
	MeasuredDelayP90 float64
}

// bufferTradeoff reproduces Fig 3: for fair shares of 0.25, 0.5, 1
// and 1.25 packets/RTT, sweep the DropTail buffer from 1 to 5 RTTs and
// measure the 20 s-slice Jain index. The paper's reading: restoring
// fairness by buffering alone needs multi-RTT buffers whose queueing
// delay is unacceptable (§2.4).
func bufferTradeoff(scale Scale, seed int64) sweep[bufferPoint] {
	const (
		bw      = 1000 * link.Kbps
		rtt     = 200 * sim.Millisecond
		mss     = 500
		pktsRTT = float64(bw) * 0.2 / 8 / mss // packets per RTT at capacity
	)
	duration := scale.duration(400*sim.Second, 80*sim.Second)
	shareUnit := float64(mss) * 8 / rtt.Seconds() // bps per pkt/RTT
	var cells []bufferPoint
	for _, share := range []float64{0.25, 0.5, 1.0, 1.25} {
		for _, bufRTTs := range []float64{1, 2, 3, 4, 5} {
			cells = append(cells, bufferPoint{FairSharePktsPerRTT: share, BufferRTTs: bufRTTs})
		}
	}
	points := runSweep(cells, func(_ int, p bufferPoint) bufferPoint {
		bufPkts := int(p.BufferRTTs * pktsRTT)
		net, slices := bulkDumbbell(topology.Config{
			Seed:          seed,
			Bandwidth:     bw,
			PropRTT:       rtt,
			Queue:         topology.DropTail,
			BufferPackets: bufPkts,
			RTTJitter:     0.25,
		}, int(float64(bw)/(p.FairSharePktsPerRTT*shareUnit)), duration)
		p.ShortJFI = net.Slicer.MeanSliceJFI(1, slices)
		p.QueueDelayMax = bw.TxTime(mss * bufPkts)
		p.MeasuredDelayP90 = net.QueueDelays.Percentile(90)
		return p
	})
	return sweep[bufferPoint]{points: points, cols: []column[bufferPoint]{
		{"fairshare(pkt/RTT)", func(p bufferPoint) string { return f2(p.FairSharePktsPerRTT) }},
		{"buffer(RTTs)", func(p bufferPoint) string { return f1(p.BufferRTTs) }},
		{"shortJFI", func(p bufferPoint) string { return f3(p.ShortJFI) }},
		{"maxQdelay", func(p bufferPoint) string { return fmt.Sprintf("%.1fs", p.QueueDelayMax.Seconds()) }},
		{"p90Qdelay", func(p bufferPoint) string { return fmt.Sprintf("%.2fs", p.MeasuredDelayP90) }},
	}}
}

// requiredBuffer returns, for each fair share, the smallest buffer (in
// RTTs) achieving the target JFI, or -1 if none did — Fig 3's y-axis.
func requiredBuffer(points []bufferPoint, targetJFI float64) map[float64]float64 {
	out := make(map[float64]float64)
	for _, p := range points {
		if _, ok := out[p.FairSharePktsPerRTT]; !ok {
			out[p.FairSharePktsPerRTT] = -1
		}
		if p.ShortJFI >= targetJFI {
			if cur := out[p.FairSharePktsPerRTT]; cur < 0 || p.BufferRTTs < cur {
				out[p.FairSharePktsPerRTT] = p.BufferRTTs
			}
		}
	}
	return out
}

func fig3(env Env) Report {
	s := bufferTradeoff(env.Scale, env.Seed)
	need, m := requiredBuffer(s.points, 0.8), s.metrics()
	m["rtts_for_jfi0.8_at_1.25pkt"] = need[1.25]
	return Report{s.render(env.CSV) + fmt.Sprintf("buffer (RTTs) required for JFI ≥ 0.8: %v\n", need), m}
}
