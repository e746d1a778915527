package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"taq/internal/core"
	"taq/internal/packet"
	"taq/internal/sim"
)

// shardPoint summarizes one shard count of the sharded-middlebox
// scaling sweep: the same flow population churned through a
// core.Sharded built on one sim engine per shard, each shard driven by
// its own goroutine — the deterministic stand-in for the emu shard
// bank's per-engine concurrency (DESIGN.md §12).
type shardPoint struct {
	Shards   int
	Flows    int
	Arrivals uint64 // packets offered (sum of shard arrivals)
	Served   uint64
	Drops    uint64
	// Checksum folds every shard's periodic shard-local read-outs, in
	// shard order, so two same-seed runs must agree exactly whatever
	// the goroutine interleaving — only the shared loss window and
	// admission state are cross-shard, and the workload keeps admission
	// off and the read-outs shard-local.
	Checksum uint64
	// WallSecs and PktsPerSec report measured wall throughput. They
	// are machine- and core-count-dependent, so they appear in the
	// human table but never in the compared metrics.
	WallSecs   float64
	PktsPerSec float64
}

// shardScalingSweep drives the flow-hash-partitioned middlebox at 1,
// 2, 4 and 8 shards over the same workload: flows are partitioned by
// core.ShardOf, each shard's slice of the churn runs on its own sim
// engine in its own goroutine, and only the Aggregator's loss window
// is shared. Deterministic counters gate CI (-compare); the wall and
// pkts/s columns document scaling on the machine at hand (near-linear
// only when GOMAXPROCS covers the shard count).
func shardScalingSweep(scale Scale, seed int64) sweep[shardPoint] {
	flows := scale.count(1_000_000, 20_000)
	duration := scale.duration(120*sim.Second, 30*sim.Second)
	s := sweep[shardPoint]{cols: []column[shardPoint]{
		{"shards", func(p shardPoint) string { return dec(p.Shards) }},
		{"flows", func(p shardPoint) string { return dec(p.Flows) }},
		{"arrivals", func(p shardPoint) string { return dec(p.Arrivals) }},
		{"served", func(p shardPoint) string { return dec(p.Served) }},
		{"drops", func(p shardPoint) string { return dec(p.Drops) }},
		{"readout checksum", func(p shardPoint) string { return fmt.Sprintf("%016x", p.Checksum) }},
		{"wall s", func(p shardPoint) string { return f2(p.WallSecs) }},
		{"pkts/s", func(p shardPoint) string { return f0(p.PktsPerSec) }},
	}}
	// Shard counts run sequentially — each point is internally
	// parallel, and sharing the machine across points would corrupt
	// the throughput columns.
	for _, n := range []int{1, 2, 4, 8} {
		s.points = append(s.points, runShardPoint(n, flows, duration, seed))
	}
	return s
}

func runShardPoint(shards, flows int, duration sim.Time, seed int64) shardPoint {
	// Admission stays off: it is the one decision that couples a
	// shard's packet fate to cross-shard state (the shared loss rate),
	// and this sweep's counters must be interleaving-independent.
	engines := make([]*sim.Engine, shards)
	runs := make([]sim.Runner, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(seed + int64(i))
		runs[i] = engines[i]
	}
	sh := core.NewShardedOn(runs, churnConfig())
	sh.Start()

	// Partition the id space by ownership, exactly as the emu bank
	// does: each driver feeds only the flows its shard owns.
	owned := make([][]packet.FlowID, shards)
	for f := 1; f <= flows; f++ {
		id := packet.FlowID(f)
		s := core.ShardOf(id, shards)
		owned[s] = append(owned[s], id)
	}

	sums := make([]uint64, shards)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids, q, sum := owned[s], sh.Shard(s), fnv.New64a()
			churn(engines[s], q, rand.New(rand.NewSource(seed+1000*int64(s))), duration, len(ids),
				func(j int) (packet.FlowID, packet.PoolID) { return ids[j], packet.PoolID(int(ids[j]) / 8) },
				func(now sim.Time) {
					// Shard-local read-outs only: census, fair share
					// and queue state never cross the shard boundary.
					fmt.Fprintf(sum, "%d,%d,%d,%v,%g\n",
						now, q.ActiveFlows(), q.RecoveringFlows(), q.StateCensus(), q.FairShare())
				})
			sums[s] = sum.Sum64()
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	sh.Stop()

	agg := fnv.New64a()
	for s, sum := range sums {
		fmt.Fprintf(agg, "%d:%016x\n", s, sum)
	}
	stats := sh.Stats()
	p := shardPoint{
		Shards:   shards,
		Flows:    flows,
		Arrivals: stats.Arrivals,
		Served:   stats.Served,
		Drops:    stats.Drops,
		Checksum: agg.Sum64(),
		WallSecs: wall,
	}
	if wall > 0 {
		p.PktsPerSec = float64(stats.Arrivals) / wall
	}
	return p
}

func shardScaling(env Env) Report {
	s := shardScalingSweep(env.Scale, env.Seed)
	m := s.metrics()
	for _, p := range s.points {
		// Deterministic counters only: wall time and pkts/s are
		// machine-dependent and must not gate -compare.
		m[fmt.Sprintf("shards%d_arrivals", p.Shards)] = float64(p.Arrivals)
		m[fmt.Sprintf("shards%d_served", p.Shards)] = float64(p.Served)
		m[fmt.Sprintf("shards%d_drops", p.Shards)] = float64(p.Drops)
	}
	return Report{s.render(env.CSV), m}
}
