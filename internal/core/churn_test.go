package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// churn is the raw-middlebox op-mix driver of the large-population and
// sharded tests: a window of 256 concurrently active flows slides
// across the n flows of flow (index → flow and pool id) over duration,
// in 10 ms steps of eng, so early flows fall silent, expire and are
// evicted while later ones are still being created. Each operation is
// a SYN (10 %), new data (50 %), a retransmission, a reverse-path ACK,
// two dequeues or silence (10 % each). Every 50th step calls readout.
func churn(eng *sim.Engine, q *TAQ, rng *rand.Rand, duration sim.Time, n int,
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
func churnConfig() Config {
	cfg := DefaultConfig(10_000*link.Kbps, 256)
	cfg.PoolFairShare = true
	return cfg
}

// TestLargePopulationChurnPinned churns 1 000 and 10 000 flows through
// a one-shard middlebox for 90 s at seed 1, so creation,
// classification, silence detection, expiry eviction and record
// recycling all run at population size (the §2.1 dial-up concentrator
// regime, scaled up). The checksum folds every periodic control
// read-out (active, recovering, census, fair share, loss rate); it and
// the end-of-run counters are pinned to committed values.
func TestLargePopulationChurnPinned(t *testing.T) {
	type point struct {
		tracked, active, recovering int
		drops, served               uint64
		checksum                    uint64
	}
	want := map[int]point{
		1_000:  {718, 186, 23, 0, 12547, 0xf04de41b2d1cc9c8},
		10_000: {6099, 2676, 2588, 8616, 16312, 0x9a4826293ef80f5d},
	}
	for _, flows := range []int{1_000, 10_000} {
		eng := sim.NewEngine(1)
		q := NewSharded(eng, churnConfig(), 1)
		q.Start()
		sum := fnv.New64a()
		churn(eng, q.Shard(0), rand.New(rand.NewSource(1)), 90*sim.Second, flows,
			func(i int) (packet.FlowID, packet.PoolID) { return packet.FlowID(i + 1), packet.PoolID(i / 8) },
			func(now sim.Time) {
				fmt.Fprintf(sum, "%d,%d,%d,%v,%g,%g\n",
					now, q.ActiveFlows(), q.RecoveringFlows(), q.StateCensus(),
					q.Shard(0).FairShare(), q.LossRate())
			})
		q.Stop()

		tracked := 0
		for _, n := range q.StateCensus() {
			tracked += n
		}
		stats := q.Stats()
		got := point{tracked, q.ActiveFlows(), q.RecoveringFlows(), stats.Drops, stats.Served, sum.Sum64()}
		if got != want[flows] {
			t.Errorf("flows=%d: got %+v, want %+v", flows, got, want[flows])
		}
		if tracked >= flows {
			t.Errorf("flows=%d: tracked %d, so no flow was ever evicted", flows, tracked)
		}
		if stats.Served == 0 {
			t.Errorf("flows=%d: nothing served", flows)
		}
	}
}

// shardedChurn is one run of the sharded churn: the middlebox's
// counters and each shard's read-out checksum, in shard order.
type shardedChurn struct {
	stats Stats
	sums  []uint64
}

// runShardedChurn drives 50 000 flows for 30 s through a middlebox of
// the given shard count built by NewShardedOn, one sim engine per
// shard. Flows are partitioned by ShardOf, exactly as the emu shard
// bank does, and each shard's driver feeds only the flows its shard
// owns. With parallel the drivers run on one goroutine each, otherwise
// one after another in shard order. Admission stays off and the
// read-outs are shard-local (census, fair share, queue state), so the
// aggregator is the only state the drivers share.
func runShardedChurn(shards int, parallel bool) shardedChurn {
	const (
		flows    = 50_000
		duration = 30 * sim.Second
		seed     = 1
	)
	engines := make([]*sim.Engine, shards)
	runs := make([]sim.Runner, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(seed + int64(i))
		runs[i] = engines[i]
	}
	sh := NewShardedOn(runs, churnConfig())
	sh.Start()

	owned := make([][]packet.FlowID, shards)
	for f := 1; f <= flows; f++ {
		id := packet.FlowID(f)
		s := ShardOf(id, shards)
		owned[s] = append(owned[s], id)
	}
	sums := make([]uint64, shards)
	drive := func(s int) {
		ids, q, sum := owned[s], sh.Shard(s), fnv.New64a()
		churn(engines[s], q, rand.New(rand.NewSource(seed+1000*int64(s))), duration, len(ids),
			func(j int) (packet.FlowID, packet.PoolID) { return ids[j], packet.PoolID(int(ids[j]) / 8) },
			func(now sim.Time) {
				fmt.Fprintf(sum, "%d,%d,%d,%v,%g\n",
					now, q.ActiveFlows(), q.RecoveringFlows(), q.StateCensus(), q.FairShare())
			})
		sums[s] = sum.Sum64()
	}
	if parallel {
		var wg sync.WaitGroup
		for s := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drive(s)
			}()
		}
		wg.Wait()
	} else {
		for s := range shards {
			drive(s)
		}
	}
	sh.Stop()
	return shardedChurn{sh.Stats(), sums}
}

// TestShardedDriversInterleavingFree drives 1, 2, 4 and 8 shards once
// from parallel goroutines and once serially: the two runs must agree
// on every counter of Stats and on every shard's read-out checksum,
// and arrivals, served, drops and the checksum are pinned to committed
// values (the checksum folds the per-shard ones in shard order). Run it
// under -race to exercise the parallel drivers' only shared state, the
// aggregator.
func TestShardedDriversInterleavingFree(t *testing.T) {
	want := []struct {
		shards                  int
		arrivals, served, drops uint64
		checksum                uint64
	}{
		{1, 73976, 23852, 49872, 0xbafe0a0b33b8d045},
		{2, 75645, 27540, 47604, 0x79179f00a019ead1},
		{4, 83971, 36056, 46903, 0xd6605353587073b0},
		{8, 100953, 52815, 46768, 0x436ecc67211e36fc},
	}
	for _, w := range want {
		par := runShardedChurn(w.shards, true)
		ser := runShardedChurn(w.shards, false)
		if fmt.Sprint(par) != fmt.Sprint(ser) {
			t.Errorf("shards=%d: parallel and serial drivers diverged:\n%+v\n%+v", w.shards, par, ser)
		}
		agg := fnv.New64a()
		for s, sum := range par.sums {
			fmt.Fprintf(agg, "%d:%016x\n", s, sum)
		}
		st := par.stats
		if st.Arrivals != w.arrivals || st.Served != w.served || st.Drops != w.drops || agg.Sum64() != w.checksum {
			t.Errorf("shards=%d: arrivals/served/drops/checksum = %d/%d/%d/%016x, want %d/%d/%d/%016x",
				w.shards, st.Arrivals, st.Served, st.Drops, agg.Sum64(),
				w.arrivals, w.served, w.drops, w.checksum)
		}
	}
}
