package experiments

import (
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
)

// subPacketPoint measures one (variant, queue) pair in the future-work
// experiment.
type subPacketPoint struct {
	Variant       string
	Queue         topology.QueueKind
	ShortJFI      float64
	LossRate      float64
	Utilization   float64
	RepetitiveTOs uint64
	MeanStalled   float64
}

// subPacketSweep evaluates the paper's future-work direction (§7:
// "end-host congestion control mechanisms for small packet regimes"):
// a sender variant that keeps a fractional paced window instead of
// exponential RTO backoff, run against standard NewReno in the deep
// sub-packet regime (80 flows on 200 Kbps ≈ 0.125 pkt/RTT each),
// under both DropTail and TAQ.
func subPacketSweep(scale Scale, seed int64) sweep[subPacketPoint] {
	duration := scale.duration(600*sim.Second, 150*sim.Second)
	type job struct {
		qk      topology.QueueKind
		name    string
		variant tcp.Variant
	}
	var jobs []job
	for _, qk := range []topology.QueueKind{topology.DropTail, topology.TAQ} {
		jobs = append(jobs,
			job{qk, "newreno", tcp.VariantNewReno},
			job{qk, "subpacket", tcp.VariantSubPacket},
		)
	}
	points := runSweep(jobs, func(_ int, j job) subPacketPoint {
		tcpCfg := tcp.DefaultConfig()
		tcpCfg.Variant = j.variant
		net, slices := bulkDumbbell(topology.Config{
			Seed:      seed,
			Bandwidth: 200 * link.Kbps,
			Queue:     j.qk,
			RTTJitter: 0.25,
			TCP:       tcpCfg,
		}, 80, duration)
		ev := net.Slicer.Evolution(1, slices)
		_, rep := net.AggregateTimeouts()
		return subPacketPoint{
			Variant:       j.name,
			Queue:         j.qk,
			ShortJFI:      net.Slicer.MeanSliceJFI(1, slices),
			LossRate:      net.LossRate(),
			Utilization:   net.Utilization(),
			RepetitiveTOs: rep,
			MeanStalled:   ev.MeanStalled(),
		}
	})
	return sweep[subPacketPoint]{points: points, cols: []column[subPacketPoint]{
		{"queue", func(p subPacketPoint) string { return string(p.Queue) }},
		{"variant", func(p subPacketPoint) string { return p.Variant }},
		{"shortJFI", func(p subPacketPoint) string { return f3(p.ShortJFI) }},
		{"loss", func(p subPacketPoint) string { return f3(p.LossRate) }},
		{"util", func(p subPacketPoint) string { return f2(p.Utilization) }},
		{"repetitiveTO", func(p subPacketPoint) string { return dec(p.RepetitiveTOs) }},
		{"stalled", func(p subPacketPoint) string { return f1(p.MeanStalled) }},
	}}
}

// subPacket's headline is the short-term JFI the paced sender gains
// over NewReno on an unmodified DropTail bottleneck.
func subPacket(env Env) Report {
	s := subPacketSweep(env.Scale, env.Seed)
	jfi := func(variant string) float64 {
		p, _ := find(s.points, func(p subPacketPoint) bool { return p.Queue == topology.DropTail && p.Variant == variant })
		return p.ShortJFI
	}
	m := s.metrics()
	m["subpacket_jfi_gain"] = jfi("subpacket") - jfi("newreno")
	return Report{s.render(env.CSV), m}
}
