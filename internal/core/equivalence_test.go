package core

import (
	"math/rand"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// Equivalence tests: the incremental aggregates (census, active-flow
// count, fixed-point inverse-epoch sum, per-pool counts) must at all
// times equal what a naive walk of the flow table computes. The walk
// is the specification the rescanning tracker implemented directly;
// the golden traces pin external behavior, and these tests pin the
// internal accounting against its definition.

// checkTrackerEquivalence recomputes every incremental aggregate from
// scratch and compares, and re-derives the FlowID↔slot bijection of
// the flat store from a naive shadow map. Callers settle activity
// deadlines first (any reader path does) so the counted flags are
// evaluated at read time, exactly like the predicate-per-flow rescan.
func checkTrackerEquivalence(t *testing.T, tr *tracker, now sim.Time) {
	t.Helper()
	tr.advanceActivity(now)

	var census Census
	activeN, singles, activePools := 0, 0, 0
	var invSumFx int64
	poolCur := map[packet.PoolID]int{}
	poolRefs := map[packet.PoolID]int{}

	// The shadow map is the specification of the open-addressed index:
	// walking the record array must yield each live flow exactly once,
	// filed in the store's index under its own id at its own slot.
	shadow := map[packet.FlowID]int32{}
	for i := range tr.store.recs {
		f := &tr.store.recs[i]
		if !f.inUse {
			continue
		}
		if f.slot != int32(i) {
			t.Fatalf("flow %d in slot %d records slot %d", f.id, i, f.slot)
		}
		if prev, dup := shadow[f.id]; dup {
			t.Fatalf("flow %d live in slots %d and %d", f.id, prev, i)
		}
		shadow[f.id] = int32(i)
	}
	if tr.store.len() != len(shadow) {
		t.Fatalf("store says %d live flows, record walk found %d", tr.store.len(), len(shadow))
	}
	for id, slot := range shadow {
		got, ok := tr.store.idx.get(int32(id))
		if !ok || got != slot {
			t.Fatalf("index maps flow %d to (%d,%v), records say slot %d", id, got, ok, slot)
		}
	}

	// actDl/scanDl mirror the flow's earliest live wheel entry: a flow
	// that believes it is armed must own an entry carrying exactly that
	// deadline, or its next transition would never come due.
	checkArenaAccounting(t, &tr.chunks, &tr.actWheel, &tr.scanWheel)
	filed := func(w *deadlineWheel) map[deadlineEntry]bool {
		m := map[deadlineEntry]bool{}
		for _, e := range wheelEntries(w) {
			m[e] = true
		}
		return m
	}
	actFiled, scanFiled := filed(&tr.actWheel), filed(&tr.scanWheel)

	for i := range tr.store.recs {
		f := &tr.store.recs[i]
		if !f.inUse {
			continue
		}
		id := f.id
		if f.actDl != 0 && !actFiled[f.handle(f.actDl)] {
			t.Fatalf("flow %d has actDl=%d but no activity-wheel entry for it", id, f.actDl)
		}
		if f.scanDl != 0 && !scanFiled[f.handle(f.scanDl)] {
			t.Fatalf("flow %d has scanDl=%d but no scan-wheel entry for it", id, f.scanDl)
		}
		census[f.state]++
		want := tr.wantCounted(f, now)
		if f.counted != want {
			t.Fatalf("flow %d counted=%v, predicate says %v (now=%d lastPkt=%d epoch=%d state=%v)",
				id, f.counted, want, now, f.lastPkt, f.epoch, f.state)
		}
		if f.pool != packet.PoolNone {
			poolRefs[f.pool]++
		}
		if !f.counted {
			continue
		}
		activeN++
		if f.invTerm != invTermFor(f.epoch) {
			t.Fatalf("flow %d stale invTerm %d, epoch %v implies %d",
				id, f.invTerm, f.epoch, invTermFor(f.epoch))
		}
		invSumFx += f.invTerm
		if f.pool == packet.PoolNone {
			singles++
		} else {
			poolCur[f.pool]++
		}
	}
	for pool, n := range poolCur {
		if n > 0 {
			activePools++
		}
		_ = pool
	}

	if census != tr.census {
		t.Fatalf("census mismatch: naive %v, incremental %v", census, tr.census)
	}
	if activeN != tr.activeN {
		t.Fatalf("activeN mismatch: naive %d, incremental %d", activeN, tr.activeN)
	}
	if invSumFx != tr.invSumFx {
		t.Fatalf("invSumFx mismatch: naive %d, incremental %d", invSumFx, tr.invSumFx)
	}
	if singles != tr.singles {
		t.Fatalf("singles mismatch: naive %d, incremental %d", singles, tr.singles)
	}
	if activePools != tr.activePoolsN {
		t.Fatalf("activePools mismatch: naive %d, incremental %d", activePools, tr.activePoolsN)
	}
	livePools := 0
	for i := range tr.pools.recs {
		if tr.pools.recs[i].inUse {
			livePools++
		}
	}
	if livePools != len(poolRefs) {
		t.Fatalf("pool table has %d entries, flows reference %d pools", livePools, len(poolRefs))
	}
	if tr.pools.idx.n != livePools {
		t.Fatalf("pool index files %d pools, record walk found %d", tr.pools.idx.n, livePools)
	}
	for pool, refs := range poolRefs {
		e := tr.pools.lookup(pool)
		if e == nil {
			t.Fatalf("pool %d referenced by %d flows but has no entry", pool, refs)
		}
		if int(e.refs) != refs {
			t.Fatalf("pool %d refs=%d, flows say %d", pool, e.refs, refs)
		}
		if int(e.cur) != poolCur[pool] {
			t.Fatalf("pool %d cur=%d, naive count %d", pool, e.cur, poolCur[pool])
		}
	}
	// Every live flow's poolSlot must resolve to its own pool's entry.
	for i := range tr.store.recs {
		f := &tr.store.recs[i]
		if !f.inUse {
			continue
		}
		if f.pool == packet.PoolNone {
			if f.poolSlot != idxEmpty {
				t.Fatalf("pool-less flow %d holds poolSlot %d", f.id, f.poolSlot)
			}
			continue
		}
		if f.poolSlot == idxEmpty {
			t.Fatalf("pooled flow %d has no poolSlot", f.id)
		}
		if e := &tr.pools.recs[f.poolSlot]; !e.inUse || e.key != f.pool {
			t.Fatalf("flow %d poolSlot %d resolves to pool %d (inUse=%v), want %d",
				f.id, f.poolSlot, e.key, e.inUse, f.pool)
		}
	}
}

// TestIncrementalEquivalenceSeeded churns a full middlebox (creation,
// classification, drops, silences, expiry eviction, free-list reuse)
// long past FlowExpiry and re-derives the aggregates from the flow
// table every 250ms of simulated time.
func TestIncrementalEquivalenceSeeded(t *testing.T) {
	scenarios := []struct {
		name   string
		poolOf func(i int) packet.PoolID
		cfg    func(*Config)
	}{
		{name: "fair", poolOf: func(int) packet.PoolID { return packet.PoolNone }},
		{
			name: "pooled",
			cfg:  func(c *Config) { c.PoolFairShare = true },
			poolOf: func(i int) packet.PoolID {
				if i%5 == 4 {
					return packet.PoolNone
				}
				return packet.PoolID(i / 4)
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(600*link.Kbps, 32)
			if sc.cfg != nil {
				sc.cfg(&cfg)
			}
			q := newTestShard(eng, cfg)
			q.Start()

			const flows = 250
			duration := 100 * sim.Second // well past FlowExpiry
			rng := rand.New(rand.NewSource(17))
			seqs := make([]int, flows)
			evicted := false

			const step = 10 * sim.Millisecond
			window := 40
			for now := sim.Time(0); now < duration; now += step {
				eng.RunUntil(now)
				lo := int(float64(flows-window) * float64(now) / float64(duration))
				for k := 0; k < 3; k++ {
					i := lo + rng.Intn(window)
					fl := packet.FlowID(i + 1)
					pool := sc.poolOf(i)
					switch rng.Intn(10) {
					case 0:
						q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Syn, Size: 40})
					case 1, 2, 3, 4, 5:
						q.Enqueue(&packet.Packet{Flow: fl, Pool: pool, Kind: packet.Data, Seq: seqs[i], Size: 500})
						seqs[i]++
					case 6:
						s := seqs[i] - 1 - rng.Intn(3)
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
				if now%(250*sim.Millisecond) == 0 {
					checkTrackerEquivalence(t, q.tracker, eng.Now())
				}
				if len(q.tracker.store.free) > 0 {
					evicted = true
				}
			}
			q.Stop()
			if !evicted {
				t.Fatal("scenario never evicted a flow; expiry path untested")
			}
		})
	}
}

// The zero-alloc proof for the O(1) control-loop reads lives in the
// repo root's hotpath_alloc_test.go now, table-driven over every
// declared //taq:hotpath root.
