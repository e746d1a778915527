package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// churn is the raw-middlebox op-mix driver of the scale and shard
// experiments: a window of 256 concurrently active flows slides across
// the n flows of flow (index → flow and pool id) over duration, in
// 10 ms steps of eng, so early flows fall silent, expire and are
// evicted while later ones are still being created. Each operation is
// a SYN (10 %), new data (50 %), a retransmission, a reverse-path ACK,
// two dequeues or silence (10 % each). Every 50th step calls readout.
func churn(eng *sim.Engine, q *core.TAQ, rng *rand.Rand, duration sim.Time, n int,
	flow func(i int) (packet.FlowID, packet.PoolID), readout func(now sim.Time)) {
	const step = 10 * sim.Millisecond
	steps := int(duration / step)
	seqs := make([]int, n)
	window := min(256, n)
	// Enough operations per step that every flow id is touched as the
	// window passes over it.
	perStep := 2*n/steps + 2
	for sn := 0; sn < steps; sn++ {
		now := sim.Time(sn) * step
		eng.RunUntil(now)
		lo := (n - window) * sn / steps
		for k := 0; k < perStep; k++ {
			i := lo + rng.Intn(window)
			fl, pool := flow(i)
			switch rng.Intn(10) {
			case 0:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Syn, Size: 40})
			case 1, 2, 3, 4, 5:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: seqs[i], Size: 500})
				seqs[i]++
			case 6:
				q.Enqueue(&packet.Packet{
					Flow: fl, Pool: pool, Kind: packet.Data, Seq: max(seqs[i]-1, 0),
					Size: 500, Retransmit: true,
				})
			case 7:
				q.ObserveReverse(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Ack, CumAck: seqs[i], Size: 40})
			case 8:
				q.Dequeue()
				q.Dequeue()
			case 9:
				// Silence.
			}
		}
		q.Dequeue()
		if sn%50 == 0 {
			readout(now)
		}
	}
}

// churnConfig is the middlebox under churn: a 10 Mbps TAQ with a
// 256-packet buffer and pool fair share on.
func churnConfig() core.Config {
	cfg := core.DefaultConfig(10_000*link.Kbps, 256)
	cfg.PoolFairShare = true
	return cfg
}

// scalePoint summarizes one flow-count point of the tracker-scale
// stress: a synthetic flow population far beyond the paper's testbed
// (the dial-up concentrator regime, §2.1, scaled up) churned through
// the middlebox so creation, classification, silence detection, expiry
// eviction and record recycling all run at population size.
type scalePoint struct {
	Flows      int    // flows offered over the run
	TrackedEnd int    // flows still tracked at the end
	ActiveEnd  int    // tracker's active count at the end
	RecovEnd   int    // recovering flows at the end
	Drops      uint64 // congestion drops over the run
	Served     uint64 // packets served over the run
	Checksum   uint64 // FNV-1a over the periodic control read-outs
}

// trackerScaleSweep churns n flows through a TAQ middlebox for each
// population size. The per-point checksum folds every periodic control
// read-out (active, recovering, census, fair share, loss rate) into
// one value, so two same-seed runs must agree exactly — CI compares
// the printed tables byte for byte as the large-population determinism
// gate.
func trackerScaleSweep(scale Scale, seed int64) sweep[scalePoint] {
	counts := []int{1_000, 10_000}
	if scale >= 0.5 {
		counts = append(counts, 100_000)
	}
	if scale >= 1 {
		counts = append(counts, 1_000_000)
	}
	duration := scale.duration(300*sim.Second, 90*sim.Second)
	points := runSweep(counts, func(_ int, flows int) scalePoint {
		return runScalePoint(flows, duration, seed)
	})
	return sweep[scalePoint]{points: points, cols: []column[scalePoint]{
		{"flows", func(p scalePoint) string { return dec(p.Flows) }},
		{"tracked", func(p scalePoint) string { return dec(p.TrackedEnd) }},
		{"active", func(p scalePoint) string { return dec(p.ActiveEnd) }},
		{"recovering", func(p scalePoint) string { return dec(p.RecovEnd) }},
		{"drops", func(p scalePoint) string { return dec(p.Drops) }},
		{"served", func(p scalePoint) string { return dec(p.Served) }},
		{"readout checksum", func(p scalePoint) string { return fmt.Sprintf("%016x", p.Checksum) }},
	}}
}

func runScalePoint(flows int, duration sim.Time, seed int64) scalePoint {
	eng := sim.NewEngine(1)
	q := core.NewSharded(eng, churnConfig(), 1)
	q.Start()
	sum := fnv.New64a()
	churn(eng, q.Shard(0), rand.New(rand.NewSource(seed)), duration, flows,
		func(i int) (packet.FlowID, packet.PoolID) { return packet.FlowID(i + 1), packet.PoolID(i / 8) },
		func(now sim.Time) {
			fmt.Fprintf(sum, "%d,%d,%d,%v,%g,%g\n",
				now, q.ActiveFlows(), q.RecoveringFlows(), q.StateCensus(),
				q.Shard(0).FairShare(), q.LossRate())
		})
	q.Stop()

	stats := q.Stats()
	tracked := 0
	for _, n := range q.StateCensus() {
		tracked += n
	}
	return scalePoint{
		Flows:      flows,
		TrackedEnd: tracked,
		ActiveEnd:  q.ActiveFlows(),
		RecovEnd:   q.RecoveringFlows(),
		Drops:      stats.Drops,
		Served:     stats.Served,
		Checksum:   sum.Sum64(),
	}
}

func trackerScale(env Env) Report {
	s := trackerScaleSweep(env.Scale, env.Seed)
	m := s.metrics()
	for _, p := range s.points {
		m[fmt.Sprintf("flows%d_tracked_end", p.Flows)] = float64(p.TrackedEnd)
		m[fmt.Sprintf("flows%d_active_end", p.Flows)] = float64(p.ActiveEnd)
	}
	return Report{s.render(env.CSV), m}
}
