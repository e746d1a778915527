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

// ScalePoint summarizes one flow-count point of the tracker-scale
// stress: a synthetic flow population far beyond the paper's testbed
// (the dial-up concentrator regime, §2.1, scaled up) churned through
// the middlebox so creation, classification, silence detection, expiry
// eviction and record recycling all run at population size.
type ScalePoint struct {
	Flows      int    // flows offered over the run
	TrackedEnd int    // flows still tracked at the end
	ActiveEnd  int    // tracker's active count at the end
	RecovEnd   int    // recovering flows at the end
	Drops      uint64 // congestion drops over the run
	Served     uint64 // packets served over the run
	Checksum   uint64 // FNV-1a over the periodic control read-outs
}

// ScaleResult holds the tracker-scale sweep.
type ScaleResult struct {
	Points []ScalePoint
}

// RunTrackerScale churns n flows through a TAQ middlebox for each
// population size: a window of concurrently active flows slides across
// the whole id space, so early flows fall silent, expire and are
// evicted while later ones are still being created. The per-point
// checksum folds every periodic control read-out (active, recovering,
// census, fair share, loss rate) into one value, so two same-seed runs
// must agree exactly — CI compares the printed tables byte for byte as
// the large-population determinism gate.
func RunTrackerScale(scale Scale, seed int64) ScaleResult {
	if seed == 0 {
		seed = 1
	}
	counts := []int{1_000, 10_000}
	if scale >= 0.5 {
		counts = append(counts, 100_000)
	}
	if scale >= 1 {
		counts = append(counts, 1_000_000)
	}
	duration := scale.duration(300*sim.Second, 90*sim.Second)
	points := runSweep(counts, func(_ int, flows int) ScalePoint {
		return runScalePoint(flows, duration, seed)
	})
	return ScaleResult{Points: points}
}

func runScalePoint(flows int, duration sim.Time, seed int64) ScalePoint {
	eng := sim.NewEngine(1)
	cfg := core.DefaultConfig(10_000*link.Kbps, 256)
	cfg.PoolFairShare = true
	q := core.NewSharded(eng, cfg, 1)
	q.Start()

	rng := rand.New(rand.NewSource(seed))
	seqs := make([]int, flows)
	sum := fnv.New64a()

	const step = 10 * sim.Millisecond
	steps := int(duration / step)
	window := 256
	if window > flows {
		window = flows
	}
	// Enough operations per step that every flow id is touched as the
	// window passes over it.
	ops := 2*flows/steps + 2

	for sn := 0; sn < steps; sn++ {
		now := sim.Time(sn) * step
		eng.RunUntil(now)
		lo := (flows - window) * sn / steps
		for k := 0; k < ops; k++ {
			i := lo + rng.Intn(window)
			fl := packet.FlowID(i + 1)
			pool := packet.PoolID(i / 8)
			switch rng.Intn(10) {
			case 0:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Syn, Size: 40})
			case 1, 2, 3, 4, 5:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: seqs[i], Size: 500})
				seqs[i]++
			case 6:
				s := seqs[i] - 1
				if s < 0 {
					s = 0
				}
				q.Enqueue(&packet.Packet{
					Flow: fl, Pool: pool, Kind: packet.Data, Seq: s,
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
			fmt.Fprintf(sum, "%d,%d,%d,%v,%g,%g\n",
				now, q.ActiveFlows(), q.RecoveringFlows(), q.StateCensus(),
				q.Shard(0).FairShare(), q.LossRate())
		}
	}
	q.Stop()

	stats := q.Stats()
	tracked := 0
	for _, n := range q.StateCensus() {
		tracked += n
	}
	return ScalePoint{
		Flows:      flows,
		TrackedEnd: tracked,
		ActiveEnd:  q.ActiveFlows(),
		RecovEnd:   q.RecoveringFlows(),
		Drops:      stats.Drops,
		Served:     stats.Served,
		Checksum:   sum.Sum64(),
	}
}

// Table renders the scale sweep.
func (r ScaleResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Flows),
			fmt.Sprintf("%d", p.TrackedEnd),
			fmt.Sprintf("%d", p.ActiveEnd),
			fmt.Sprintf("%d", p.RecovEnd),
			fmt.Sprintf("%d", p.Drops),
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%016x", p.Checksum),
		})
	}
	return table([]string{"flows", "tracked", "active", "recovering", "drops", "served", "readout checksum"}, rows)
}
