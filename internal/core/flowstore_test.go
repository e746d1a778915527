package core

import (
	"math/rand"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// checkIndexAgainstShadow compares every key the shadow map knows (and
// a structural sweep of the table) against the open-addressed index.
func checkIndexAgainstShadow(t *testing.T, ix *oaIndex, shadow map[int32]int32) {
	t.Helper()
	if ix.n != len(shadow) {
		t.Fatalf("index has %d entries, shadow has %d", ix.n, len(shadow))
	}
	for k, want := range shadow {
		got, ok := ix.get(k)
		if !ok || got != want {
			t.Fatalf("get(%d) = (%d,%v), shadow says %d", k, got, ok, want)
		}
	}
	// Structural invariants: occupied buckets equal n exactly (backshift
	// deletion leaves no tombstones), and every occupied bucket holds a
	// key the shadow knows — so get's probe loop accounts for the whole
	// population with no duplicates.
	occ := 0
	for b, s := range ix.slots {
		if s == idxEmpty {
			continue
		}
		occ++
		k := ix.keys[b]
		want, ok := shadow[k]
		if !ok {
			t.Fatalf("bucket %d holds key %d not present in shadow", b, k)
		}
		if s != want {
			t.Fatalf("bucket %d maps key %d to %d, shadow says %d", b, k, s, want)
		}
	}
	if occ != ix.n {
		t.Fatalf("%d occupied buckets but n=%d (tombstone or lost entry)", occ, ix.n)
	}
}

// TestFlowIndexChurnBijection drives the open-addressed index with a
// seeded random insert/delete/lookup sequence — including deletes of
// absent keys, key 0 (a valid FlowID), and negative keys — and
// re-derives the full key↔slot bijection from a naive shadow map.
func TestFlowIndexChurnBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ix oaIndex
	shadow := map[int32]int32{}

	const ops = 200_000
	for op := 0; op < ops; op++ {
		k := int32(rng.Intn(4000) - 100) // collides hard; spans negatives and 0
		switch r := rng.Intn(10); {
		case r < 4: // insert if absent
			if _, ok := shadow[k]; !ok {
				v := int32(rng.Intn(1 << 20))
				ix.put(k, v)
				shadow[k] = v
			}
		case r < 7: // delete (absent keys must be a no-op)
			ix.del(k)
			delete(shadow, k)
		default:
			got, ok := ix.get(k)
			want, wok := shadow[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%d) = (%d,%v), shadow says (%d,%v)", op, k, got, ok, want, wok)
			}
		}
		if ix.n != len(shadow) {
			t.Fatalf("op %d: index n=%d, shadow %d", op, ix.n, len(shadow))
		}
		if op%5000 == 0 {
			ix.maybeGrow() // the scan-cadence growth path
		}
	}
	checkIndexAgainstShadow(t, &ix, shadow)
}

// FuzzFlowIndex throws arbitrary op sequences at the index over a tiny
// key space (so probe chains collide and wrap constantly) and checks
// the shadow-map bijection plus the tombstone-free structural
// invariant after every operation — the backshift deletion rule is
// exactly what this pins down.
func FuzzFlowIndex(f *testing.F) {
	f.Add([]byte{0x01, 0x41, 0x81, 0xc1})
	f.Add([]byte{0x01, 0x02, 0x03, 0x41, 0x42, 0x43, 0x81, 0x82})
	// Insert a cluster, delete from its middle, reinsert.
	f.Add([]byte{0x01, 0x11, 0x21, 0x31, 0x52, 0x01, 0x13, 0x23})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ix oaIndex
		shadow := map[int32]int32{}
		for i, b := range data {
			k := int32(b & 0x3f) // 64 keys over ≥64 buckets: dense collisions
			switch b >> 6 {
			case 0: // put if absent
				if _, ok := shadow[k]; !ok {
					v := int32(i)
					ix.put(k, v)
					shadow[k] = v
				}
			case 1: // del
				ix.del(k)
				delete(shadow, k)
			case 2: // get
				got, ok := ix.get(k)
				want, wok := shadow[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("get(%d) = (%d,%v), shadow says (%d,%v)", k, got, ok, want, wok)
				}
			case 3: // scan-cadence growth
				ix.maybeGrow()
			}
			if ix.n != len(shadow) {
				t.Fatalf("n=%d, shadow %d after op %d", ix.n, len(shadow), i)
			}
		}
		checkIndexAgainstShadow(t, &ix, shadow)
	})
}

// TestFlowStoreRecycle pins the slot/generation protocol at the store
// level: release bumps the generation and recycles the slot LIFO, so a
// (slot, gen) handle taken before the release never matches the slot's
// next occupant.
func TestFlowStoreRecycle(t *testing.T) {
	var s flowStore
	a := s.alloc(7)
	slot, gen := a.slot, a.gen

	var arena chunkArena
	w := newDeadlineWheel(&arena, 10, 1000)
	w.push(a.handle(100))

	s.release(a)
	if got := s.at(slot).gen; got != gen+1 {
		t.Fatalf("release bumped gen to %d, want %d", got, gen+1)
	}
	b := s.alloc(9)
	if b.slot != slot {
		t.Fatalf("free list gave slot %d, want recycled slot %d", b.slot, slot)
	}
	if b.gen == gen {
		t.Fatal("recycled record kept the old generation; stale handles would resolve")
	}
	es := wheelEntries(&w)
	if len(es) != 1 || es[0].slot != slot {
		t.Fatalf("wheel entries = %v, want one for slot %d", es, slot)
	}
	if es[0].gen == s.at(es[0].slot).gen {
		t.Fatal("stale wheel handle matches the recycled record's generation")
	}
	if f := s.lookup(7); f != nil {
		t.Fatalf("released flow 7 still resolves to slot %d", f.slot)
	}
	if f := s.lookup(9); f == nil || f.slot != slot {
		t.Fatal("recycled flow 9 does not resolve to the reused slot")
	}
}

// TestStaleWheelHandlesRejectedAfterRecycle proves the generation check
// end to end through the tracker: a flow is evicted, its slot is
// recycled for a different flow, and the stale deadline-wheel entries
// left behind must be discarded by the scan without disturbing the
// slot's new occupant or the incremental aggregates.
func TestStaleWheelHandlesRejectedAfterRecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(600*link.Kbps, 32)
	tr := newTracker(eng, cfg, &Stats{})

	tr.observe(&packet.Packet{Flow: 1, Kind: packet.Data, Seq: 0, Size: 500})
	f := tr.get(1)
	slot, gen := f.slot, f.gen
	if tr.scanWheel.n == 0 || tr.actWheel.n == 0 {
		t.Fatal("expected wheel entries for the observed flow")
	}
	tr.evictFlow(f)

	eng.RunUntil(sim.Millisecond)
	tr.observe(&packet.Packet{Flow: 2, Kind: packet.Data, Seq: 0, Size: 500})
	g := tr.get(2)
	if g.slot != slot {
		t.Fatalf("flow 2 landed in slot %d, want recycled slot %d", g.slot, slot)
	}
	if g.gen == gen {
		t.Fatal("recycled slot kept flow 1's generation")
	}
	stale := 0
	for _, e := range wheelEntries(&tr.scanWheel) {
		if e.slot == slot && e.gen == gen {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("eviction left no stale scan-wheel entries; nothing to reject")
	}

	// Run far past flow 1's old deadlines: the stale entries drain, and
	// flow 2 must come through tracked and consistent.
	eng.RunUntil(350 * sim.Millisecond)
	tr.scan()
	if tr.store.len() != 1 {
		t.Fatalf("store tracks %d flows after scan, want 1", tr.store.len())
	}
	if tr.get(2) == nil {
		t.Fatal("flow 2 lost to a stale handle")
	}
	for _, e := range wheelEntries(&tr.scanWheel) {
		if e.slot == slot && e.gen == gen {
			t.Fatal("stale entry survived a scan past its deadline")
		}
	}
	checkTrackerEquivalence(t, tr, eng.Now())
}
