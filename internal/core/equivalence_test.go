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
	for i := int32(0); i < tr.store.n; i++ {
		f := tr.store.at(i)
		if !f.has(flagLive) {
			continue
		}
		if f.slot != i {
			t.Fatalf("flow %d in slot %d records slot %d", f.id, i, f.slot)
		}
		if prev, dup := shadow[f.id]; dup {
			t.Fatalf("flow %d live in slots %d and %d", f.id, prev, i)
		}
		shadow[f.id] = i
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

	// actDl/scanDl mirror the flow's one live wheel entry, and a drain
	// decides every entry from them: a flow that believes it is armed
	// must own an entry in the mirror's slot (or in the watermark slot,
	// for a push behind it), or its next transition would never come
	// due.
	checkArenaAccounting(t, &tr.chunks, &tr.actWheel, &tr.scanWheel)

	for i := int32(0); i < tr.store.n; i++ {
		f := tr.store.at(i)
		if !f.has(flagLive) {
			continue
		}
		id, pool := f.id, tr.poolOf(f)
		if f.actDl != 0 && !ownsEntry(&tr.actWheel, f.handle(), f.actDl) {
			t.Fatalf("flow %d has actDl=%d but no activity-wheel entry for it", id, f.actDl)
		}
		if f.scanDl != 0 && !ownsEntry(&tr.scanWheel, f.handle(), f.scanDl) {
			t.Fatalf("flow %d has scanDl=%d but no scan-wheel entry for it", id, f.scanDl)
		}
		census[f.state]++
		want := tr.wantCounted(f, now)
		if f.has(flagCounted) != want {
			t.Fatalf("flow %d counted=%v, predicate says %v (now=%d lastPkt=%d epoch=%d state=%v)",
				id, f.has(flagCounted), want, now, f.lastPkt, f.epoch, f.state)
		}
		if pool != packet.PoolNone {
			poolRefs[pool]++
		}
		if !f.has(flagCounted) {
			continue
		}
		activeN++
		// The record stores no term: the sum must be exactly the terms
		// the counted flows' current epochs imply.
		invSumFx += invTermFor(f.epoch)
		if pool == packet.PoolNone {
			singles++
		} else {
			poolCur[pool]++
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
		t.Fatalf("invSumFx mismatch: Σ invTermFor(epoch) over counted flows %d, incremental %d", invSumFx, tr.invSumFx)
	}
	if singles != tr.singles {
		t.Fatalf("singles mismatch: naive %d, incremental %d", singles, tr.singles)
	}
	if activePools != tr.activePoolsN {
		t.Fatalf("activePools mismatch: naive %d, incremental %d", activePools, tr.activePoolsN)
	}
	livePools := 0
	for i := range tr.pools.recs {
		if tr.pools.recs[i].refs > 0 {
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
	// Every pooled flow's poolSlot must pin a filed entry, and the
	// index must resolve that entry's key back to the same slot.
	for i := int32(0); i < tr.store.n; i++ {
		f := tr.store.at(i)
		if !f.has(flagLive) || f.poolSlot == idxEmpty {
			continue
		}
		e := &tr.pools.recs[f.poolSlot]
		if slot, ok := tr.pools.idx.get(int32(e.key)); e.refs <= 0 || !ok || slot != f.poolSlot {
			t.Fatalf("flow %d poolSlot %d resolves to pool %d (refs=%d), filed at (%d,%v)",
				f.id, f.poolSlot, e.key, e.refs, slot, ok)
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
					for c := ClassNewFlow; int(c) < numClasses; c++ {
						checkVictimHandles(t, &q.q[c], q.tracker)
					}
					// A record derives its pool from the entry it pins:
					// that must be the pool its packets carry.
					for i := int32(0); i < q.tracker.store.n; i++ {
						f := q.tracker.store.at(i)
						if want := sc.poolOf(int(f.id) - 1); f.has(flagLive) && q.tracker.poolOf(f) != want {
							t.Fatalf("flow %d derives pool %d, its packets carry %d", f.id, q.tracker.poolOf(f), want)
						}
					}
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

// checkVictimHandles checks the record handles a class queue keeps for
// victim scoring: whether a handle still holds its flow's live record
// or went stale when the record expired, it resolves to the record the
// index holds for the flow (nil for an expired one).
func checkVictimHandles(t *testing.T, fifo *classFIFO, tr *tracker) {
	t.Helper()
	for id, e := range fifo.occ {
		if got, want := tr.store.resolve(id, e.slot), tr.get(id); got != want {
			t.Fatalf("flow %d handle slot %d resolves to %p, index holds %p", id, e.slot, got, want)
		}
	}
}
