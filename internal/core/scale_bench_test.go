package core

import (
	"fmt"
	"runtime"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// loadFlows drives n flows into q, with each flow having seen a SYN
// and two data segments. Flows are spread across pools of 32 so the
// pool-fairness accounting is exercised too. The queue is drained
// after every batch so buffer evictions don't distort the tracker
// population.
func loadFlows(eng *sim.Engine, q *TAQ, n int) {
	for i := 0; i < n; i++ {
		fl := packet.FlowID(i + 1)
		pool := packet.PoolID(i / 32)
		q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Syn, Size: 40})
		q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: 0, Size: 500})
		q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: 1, Size: 500})
		for q.Dequeue() != nil {
		}
		if i%1024 == 1023 {
			eng.RunUntil(eng.Now() + sim.Millisecond)
		}
	}
}

// buildLoadedTAQ creates a TAQ middlebox tracking n flows (see
// loadFlows) plus reusable data packets for churn benchmarks.
func buildLoadedTAQ(tb testing.TB, n int) (*sim.Engine, *TAQ, []*packet.Packet) {
	tb.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(link.Bps(1_000_000_000), 256)
	cfg.PoolFairShare = true
	q := newTestShard(eng, cfg)
	loadFlows(eng, q, n)

	touch := make([]*packet.Packet, n)
	for i := range touch {
		touch[i] = &packet.Packet{
			Flow: packet.FlowID(i + 1), Pool: packet.PoolID(i / 32),
			Kind: packet.Data, Seq: 2, Size: 500,
		}
	}
	return eng, q, touch
}

// BenchmarkTrackerScan measures the periodic control-loop tick at
// scale: each iteration touches n/100 flows (steady churn), advances
// simulated time by one scan interval, and runs the full TAQ scan
// (silence detection, fair-share refresh, pool accounting, loss
// window). The flow table stays at n tracked flows throughout.
func BenchmarkTrackerScan(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			eng, q, touch := buildLoadedTAQ(b, n)
			step := n / 100
			if step < 1 {
				step = 1
			}
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < step; j++ {
					p := touch[next]
					next = (next + 1) % len(touch)
					p.Seq++
					q.Enqueue(p)
					q.Dequeue()
				}
				eng.RunUntil(eng.Now() + q.cfg.ScanInterval)
				q.scan()
			}
		})
	}
}

// BenchmarkFlowLookup measures the packet-path flow lookup against a
// loaded table: a hit (tracked flow), a miss (unknown flow), and
// create (getOrCreate of a fresh flow, immediately evicted so the
// table size holds and the free list stays hot — the steady-state
// shape of flow churn).
func BenchmarkFlowLookup(b *testing.B) {
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			_, q, _ := buildLoadedTAQ(b, n)
			tr := q.tracker
			b.Run("hit", func(b *testing.B) {
				var sink sim.Time
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink += tr.get(packet.FlowID(i%n + 1)).epoch
				}
				_ = sink
			})
			b.Run("miss", func(b *testing.B) {
				miss := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if tr.get(packet.FlowID(n+2+i%n)) == nil {
						miss++
					}
				}
				if miss != b.N {
					b.Fatalf("%d misses, want %d", miss, b.N)
				}
			})
			b.Run("create", func(b *testing.B) {
				p := &packet.Packet{Kind: packet.Syn, Size: 40, Pool: packet.PoolNone}
				id := packet.FlowID(10_000_000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.Flow = id
					f := tr.getOrCreate(p)
					tr.evictFlow(f)
					id++
				}
			})
		})
	}
}

// BenchmarkFlowMemory reports the tracker's measured memory footprint
// per tracked flow: heap growth across middlebox construction plus
// loadFlows (records, index, heaps, pool tables — no benchmark
// scaffolding), divided by the flow count. KeepAlive pins the
// middlebox so the post-load GC cannot collect what we just measured.
func BenchmarkFlowMemory(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(1)
				cfg := DefaultConfig(link.Bps(1_000_000_000), 256)
				cfg.PoolFairShare = true
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				q := newTestShard(eng, cfg)
				loadFlows(eng, q, n)
				runtime.GC()
				runtime.ReadMemStats(&m1)
				perFlow := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(n)
				b.ReportMetric(perFlow, "B/flow")
				runtime.KeepAlive(q)
			}
		})
	}
}

// BenchmarkGaugeSample measures what the obs gauge sampler pays per
// sampling tick: one read each of ActiveFlows, RecoveringFlows, and
// StateCensus against a table of n tracked flows.
func BenchmarkGaugeSample(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			_, q, _ := buildLoadedTAQ(b, n)
			var sink int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += q.ActiveFlows()
				sink += q.RecoveringFlows()
				c := q.StateCensus()
				sink += c[StateNormal]
			}
			_ = sink
		})
	}
}
