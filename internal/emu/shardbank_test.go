package emu

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// soakWall reads the soak's wall budget: TAQ_SOAK_SECS seconds when
// set (the CI soak job sets 60+), else a short tier-1 default.
func soakWall() time.Duration {
	if v := os.Getenv("TAQ_SOAK_SECS"); v != "" {
		if s, err := strconv.ParseFloat(v, 64); err == nil && s > 0 {
			return time.Duration(s * float64(time.Second))
		}
	}
	return 400 * time.Millisecond
}

// soakFlows reads the soak's flow-population knob (TAQ_SOAK_FLOWS; the
// CI soak job sets 1_000_000+), else a tier-1 default small enough for
// the race detector.
func soakFlows() int {
	if v := os.Getenv("TAQ_SOAK_FLOWS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 20_000
}

// counterTotal sums one counter family across all its label cells in a
// snapshot; ok is false when the family is absent.
func counterTotal(s *obs.MetricsSnapshot, name string) (uint64, bool) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			var sum uint64
			for _, v := range s.Counters[i].Values {
				sum += v
			}
			return sum, true
		}
	}
	return 0, false
}

// TestShardBankSoak drives a GOMAXPROCS-shard bank with one driver
// goroutine per shard, each feeding only the flows its shard owns
// (core.ShardOf), modeled on the tracker-scale churn workload: SYNs,
// in-order data, retransmissions, reverse-path acks, dequeues and
// silence sliding across the id space so creation, expiry and
// recycling all run concurrently on every shard.
//
// Tier-1 runs a sub-second slice; the CI soak job re-runs it under
// -race with TAQ_SOAK_SECS=60 TAQ_SOAK_FLOWS=1000000 and TAQ_SOAK_DIR
// set, which additionally writes the merged Prometheus exposition and
// arms a flight recorder on shard 0.
func TestShardBankSoak(t *testing.T) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		// Even single-core runs must exercise the cross-shard seams.
		shards = 2
	}
	flows := soakFlows()
	wall := soakWall()
	dir := os.Getenv("TAQ_SOAK_DIR")
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("TAQ_SOAK_DIR: %v", err)
		}
	}

	cfg := core.DefaultConfig(10_000*link.Kbps, 256)
	cfg.PoolFairShare = true
	bank := NewShardBank(ShardBankConfig{
		Shards:  shards,
		Seed:    1,
		Speedup: 50,
		Core:    cfg,
		Metrics: true,
	})

	// Optional flight recorder on shard 0, dumping the event ring when
	// that shard's drop counter first moves.
	var flight *obs.FlightRecorder
	if dir != "" {
		rec := obs.NewRecorder(nil, 4096)
		sh0 := bank.Shard(0)
		bank.Post(0, func() {
			sh0.TAQ.SetRecorder(rec)
			flight = obs.NewFlightRecorder(sh0.Engine, rec, 0, func(name string, seq int) (io.WriteCloser, error) {
				return os.Create(filepath.Join(dir, fmt.Sprintf("flight-%s-%d.jsonl", name, seq)))
			})
			flight.ClassName = func(c int8) string { return core.Class(c).String() }
			flight.Watch(obs.Trigger{
				Name:      "drops",
				Value:     func() float64 { return float64(sh0.TAQ.Stats.Drops) },
				Threshold: 1,
			})
			flight.Start()
		})
	}

	// Partition the id space by ownership once, up front: each driver
	// must feed exactly the flows its shard owns, or flow state would
	// split across trackers.
	owned := make([][]packet.FlowID, shards)
	for i := 1; i <= flows; i++ {
		fl := packet.FlowID(i)
		s := core.ShardOf(fl, shards)
		owned[s] = append(owned[s], fl)
	}

	deadline := time.Now().Add(wall)
	enqueued := make([]uint64, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ids := owned[s]
			if len(ids) == 0 {
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + s)))
			seqs := make([]int, len(ids))
			taq := bank.Shard(s).TAQ
			window := 256
			if window > len(ids) {
				window = len(ids)
			}
			lo := 0
			for time.Now().Before(deadline) {
				// One engine-lock acquisition per batch, like a NIC
				// handing the shard a burst.
				bank.Post(s, func() {
					for k := 0; k < 256; k++ {
						j := lo + rng.Intn(window)
						if j >= len(ids) {
							j = len(ids) - 1
						}
						fl := ids[j]
						pool := packet.PoolID(int(fl) / 8)
						switch rng.Intn(10) {
						case 0:
							taq.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Syn, Size: 40})
							enqueued[s]++
						case 1, 2, 3, 4, 5:
							taq.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: seqs[j], Size: 500})
							seqs[j]++
							enqueued[s]++
						case 6:
							sq := seqs[j] - 1
							if sq < 0 {
								sq = 0
							}
							taq.Enqueue(&packet.Packet{
								Flow: fl, Pool: pool, Kind: packet.Data, Seq: sq,
								Size: 500, Retransmit: true,
							})
							enqueued[s]++
						case 7:
							taq.ObserveReverse(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Ack, CumAck: seqs[j], Size: 40})
						case 8:
							taq.Dequeue()
							taq.Dequeue()
						case 9:
							// Silence.
						}
					}
				})
				// Slide the active window across the owned id space so
				// early flows fall silent and expire mid-run.
				if lo+window < len(ids) {
					lo++
				}
			}
		}(s)
	}
	wg.Wait()

	var total uint64
	for _, n := range enqueued {
		total += n
	}
	stats := bank.Stats()
	if stats.Arrivals != total {
		t.Errorf("summed shard arrivals = %d, drivers enqueued %d", stats.Arrivals, total)
	}
	if stats.Served+stats.Drops > stats.Arrivals {
		t.Errorf("served %d + dropped %d exceeds arrivals %d", stats.Served, stats.Drops, stats.Arrivals)
	}

	// The merged exposition must agree with the summed Stats: the
	// registries read the same per-shard counters.
	// The scans stop first: a transition they count between the two
	// snapshots would make the fold equality below a statement about
	// timing instead of about Merge.
	for s := 0; s < shards; s++ {
		bank.Post(s, bank.Shard(s).TAQ.Stop)
	}
	merged := bank.MergedSnapshot()
	var manual *obs.MetricsSnapshot
	bank.locked(0, func() {
		manual = bank.Shard(0).Registry.Snapshot()
		for s := 1; s < shards; s++ {
			manual.Merge(bank.Shard(s).Registry.Snapshot())
		}
	})
	if served, ok := counterTotal(merged, "taq_served_total"); !ok || served != stats.Served {
		t.Errorf("merged taq_served_total = %d (present=%v), stats.Served = %d", served, ok, stats.Served)
	}
	if drops, ok := counterTotal(merged, "taq_drops_total"); !ok || drops != stats.Drops {
		t.Errorf("merged taq_drops_total = %d (present=%v), stats.Drops = %d", drops, ok, stats.Drops)
	}

	// And it must equal the fold of the individual shard snapshots.
	for i := range merged.Counters {
		for j, v := range merged.Counters[i].Values {
			if manual.Counters[i].Values[j] != v {
				t.Errorf("MergedSnapshot %s[%d] = %d, manual fold = %d",
					merged.Counters[i].Name, j, v, manual.Counters[i].Values[j])
			}
		}
	}

	if dir != "" {
		bank.Post(0, flight.Stop)
		if flight.Err != nil {
			t.Errorf("flight recorder error: %v", flight.Err)
		}
		f, err := os.Create(filepath.Join(dir, "metrics.prom"))
		if err != nil {
			t.Fatalf("create metrics.prom: %v", err)
		}
		if err := merged.WriteText(f); err != nil {
			t.Errorf("write metrics.prom: %v", err)
		}
		f.Close()
		t.Logf("soak: shards=%d flows=%d wall=%v arrivals=%d served=%d drops=%d flight_dumps=%d",
			shards, flows, wall, stats.Arrivals, stats.Served, stats.Drops, flight.Dumps)
	}

	// Teardown must disarm every shard's wall timers (the Engine.Stop
	// leak regression, at bank scale).
	bank.Stop()
	for s := 0; s < shards; s++ {
		if n := bank.Shard(s).Engine.outstandingTimers(); n != 0 {
			t.Errorf("shard %d: %d wall timers still armed after Stop", s, n)
		}
	}
}

// TestShardBankAdmissionRecordedByDecidingShard pins where a §4.3
// ruling is written: the shard whose Enqueue asked records it in its own
// ring and counts it in its own Stats, from its own goroutine. PThresh 0
// and a Twait longer than the run block every fresh pool's first SYN.
func TestShardBankAdmissionRecordedByDecidingShard(t *testing.T) {
	cfg := core.DefaultConfig(1000*link.Kbps, 64)
	cfg.AdmissionControl = true
	cfg.PThresh = 0
	cfg.Twait = 3600 * sim.Second
	bank := NewShardBank(ShardBankConfig{Shards: 2, Seed: 1, Speedup: 1, Core: cfg, Metrics: true})
	defer bank.Stop()

	recs := make([]*obs.Recorder, bank.NumShards())
	for s := range recs {
		rec := obs.NewRecorder(nil, 0)
		recs[s] = rec
		sh := bank.Shard(s)
		bank.Post(s, func() { sh.TAQ.SetRecorder(rec) })
	}

	const perShard = 50
	var wg sync.WaitGroup
	for s := 0; s < bank.NumShards(); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := bank.Shard(s).TAQ
			for fl, sent := packet.FlowID(1), 0; sent < perShard; fl++ {
				if bank.ShardFor(fl) != s {
					continue
				}
				bank.Post(s, func() {
					sh.Enqueue(&packet.Packet{Flow: fl, Pool: packet.PoolID(fl), Kind: packet.Syn, Size: 40})
				})
				sent++
			}
		}(s)
	}
	wg.Wait()

	var sum core.Stats
	for s := 0; s < bank.NumShards(); s++ {
		var st core.Stats
		var decisions int
		bank.Post(s, func() {
			st = bank.Shard(s).TAQ.Stats
			for _, ev := range recs[s].Events() {
				if ev.Kind == obs.KindAdmissionDecision {
					decisions++
				}
			}
		})
		if st.SynsBlocked != perShard {
			t.Errorf("shard %d: SynsBlocked = %d, want %d", s, st.SynsBlocked, perShard)
		}
		if want := st.SynsBlocked + st.PoolsAdmitted; uint64(decisions) != want {
			t.Errorf("shard %d: ring holds %d admission decisions, its Stats count %d", s, decisions, want)
		}
		sum.Add(&st)
	}
	if got, ok := counterTotal(bank.MergedSnapshot(), "taq_admission_decisions_total"); !ok || got != sum.SynsBlocked+sum.PoolsAdmitted {
		t.Errorf("merged taq_admission_decisions_total = %d (present=%v), summed Stats = %d",
			got, ok, sum.SynsBlocked+sum.PoolsAdmitted)
	}
}

// TestShardBankOwnershipRouting pins the ownership contract: a packet
// posted to ShardFor(flow) lands in that shard's tracker and nowhere
// else.
func TestShardBankOwnershipRouting(t *testing.T) {
	// Real time: at 1000x, a loaded host's millisecond stall let the
	// scan retire the first flows (four idle epochs) before the check.
	bank := NewShardBank(ShardBankConfig{
		Shards:  4,
		Seed:    1,
		Speedup: 1,
		Core:    core.DefaultConfig(1000*link.Kbps, 64),
	})
	defer bank.Stop()

	perShard := make([]int, bank.NumShards())
	for i := 1; i <= 64; i++ {
		fl := packet.FlowID(i)
		s := bank.ShardFor(fl)
		perShard[s]++
		bank.Post(s, func() {
			bank.Shard(s).TAQ.Enqueue(&packet.Packet{Flow: fl, Kind: packet.Data, Size: 500})
		})
	}
	for s := 0; s < bank.NumShards(); s++ {
		var got uint64
		sh := bank.Shard(s)
		bank.Post(s, func() { got = sh.TAQ.Stats.Arrivals })
		if got != uint64(perShard[s]) {
			t.Errorf("shard %d arrivals = %d, want %d", s, got, perShard[s])
		}
	}
	bank.locked(0, func() {
		if n := bank.disc.ActiveFlows(); n != 64 {
			t.Errorf("aggregate active flows = %d, want 64", n)
		}
	})
}
