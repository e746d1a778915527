package core

import (
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

// TestPoolRecordPointersMoveOnCreate pins the pointer-discipline rule
// the flat tables live by (slotTable and flowStore, flowstore.go):
// alloc appends to the record slice, so growth relocates every
// existing record and a *poolInfo held across an alloc aliases the dead
// backing array. The old admission code did exactly that — its create
// returned the record pointer and allowSyn kept using it after later
// table growth — which is why alloc returns a slot and every caller
// re-derives &recs[slot] afterward.
func TestPoolRecordPointersMoveOnCreate(t *testing.T) {
	var pt slotTable[poolInfo]

	first := pt.alloc(1)
	pt.recs[first] = poolInfo{key: 1, inUse: true, waitingSince: 42}
	stale := &pt.recs[first]

	// Grow until append reallocates the backing array out from under
	// the held pointer. Capacity doubling guarantees this within the
	// first few thousand creates.
	moved := false
	for id := packet.PoolID(2); id < 5000; id++ {
		pt.alloc(id)
		if &pt.recs[first] != stale {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("record array never relocated; the test no longer exercises the hazard")
	}

	// The slot, unlike the pointer, survives the relocation.
	live := &pt.recs[first]
	if live.key != 1 || live.waitingSince != 42 || !live.inUse {
		t.Fatalf("slot %d lost its record across growth: %+v", first, *live)
	}
	if slot, ok := pt.idx.get(1); !ok || slot != first {
		t.Fatalf("index maps pool 1 to (%d,%v), want slot %d", slot, ok, first)
	}

	// Writes through the stale pointer land in the dead array: the live
	// record must not see them. This is the silent corruption the
	// slot-return contract exists to prevent.
	stale.admitted = true
	if pt.recs[first].admitted {
		t.Fatal("stale pointer still aliases the live record")
	}
}

// TestAdmissionSurvivesTableGrowth drives the §4.3 controller itself
// across many table growths: every pool admitted before a growth must
// still be admitted after it, and the FIFO/Twait bookkeeping must stay
// on the live records (a regression here means a pointer was held
// across create).
func TestAdmissionSurvivesTableGrowth(t *testing.T) {
	eng := sim.NewEngine(1)
	var a admission

	// Low loss: every head-of-line SYN admits immediately. 10k pools
	// force several record-array doublings mid-sequence.
	const pools = 10_000
	for id := 1; id <= pools; id++ {
		if r, _ := a.allowSyn(eng.Now(), packet.PoolID(id), 0); r != ruleAdmitted {
			t.Fatalf("pool %d ruled %d under zero loss, want admitted", id, r)
		}
	}
	for id := 1; id <= pools; id++ {
		if !a.poolAdmitted(eng.Now(), packet.PoolID(id)) {
			t.Fatalf("pool %d lost its admission across table growth", id)
		}
		if r, _ := a.allowSyn(eng.Now(), packet.PoolID(id), 0); r != ruleNone {
			t.Fatalf("admitted pool %d ruled %d again, want none", id, r)
		}
	}
}

// TestIndexEmergencyGrowthValve covers put's 7/8 safety valve: a
// sustained insert burst with no scan-cadence maybeGrow in between
// must keep the table at or under 7/8 load after every insert (put
// checks before inserting, so 7/8 exactly is the worst legal state —
// the table is never full and probe loops terminate) and lose nothing.
func TestIndexEmergencyGrowthValve(t *testing.T) {
	var ix oaIndex
	const keys = 100_000
	for k := int32(1); k <= keys; k++ {
		ix.put(k, k*2)
		cap := len(ix.slots)
		if ix.n > cap-cap/8 {
			t.Fatalf("after %d burst inserts load is %d/%d, valve never fired", k, ix.n, cap)
		}
	}
	for k := int32(1); k <= keys; k++ {
		if v, ok := ix.get(k); !ok || v != k*2 {
			t.Fatalf("get(%d) = (%d,%v) after burst growth, want %d", k, v, ok, k*2)
		}
	}
}

// TestIndexValveAfterChurn re-runs the valve under free-list-style
// churn: deletions open holes, then a burst refills past the old
// population with maybeGrow never called, exercising emergency growth
// from a table whose chains were backshift-compacted.
func TestIndexValveAfterChurn(t *testing.T) {
	var ix oaIndex
	shadow := map[int32]int32{}
	for k := int32(1); k <= 1000; k++ {
		ix.put(k, k)
		shadow[k] = k
	}
	for k := int32(1); k <= 1000; k += 2 {
		ix.del(k)
		delete(shadow, k)
	}
	for k := int32(1001); k <= 50_000; k++ {
		ix.put(k, -k)
		shadow[k] = -k
		cap := len(ix.slots)
		if ix.n > cap-cap/8 {
			t.Fatalf("at key %d load is %d/%d, valve never fired", k, ix.n, cap)
		}
	}
	checkIndexAgainstShadow(t, &ix, shadow)
}

// TestMaybeGrowThresholdBelowValve pins the two-threshold design: the
// scan-cadence maybeGrow (5/8) must trip strictly before the packet
// path's emergency valve (7/8), so steady-state growth happens on the
// control loop, never under a packet.
func TestMaybeGrowThresholdBelowValve(t *testing.T) {
	var ix oaIndex
	k := int32(1)
	// Fill to exactly the maybeGrow threshold without tripping put's
	// valve on the way.
	for {
		cap := len(ix.slots)
		if cap > 0 && ix.n >= cap/2+cap/8 {
			break
		}
		ix.put(k, k)
		k++
	}
	capBefore := len(ix.slots)
	if ix.n >= capBefore-capBefore/8 {
		t.Fatalf("load %d/%d already past the emergency valve at the scan threshold", ix.n, capBefore)
	}
	ix.maybeGrow()
	if len(ix.slots) != 2*capBefore {
		t.Fatalf("maybeGrow at 5/8 load left capacity %d, want %d", len(ix.slots), 2*capBefore)
	}
	for i := int32(1); i < k; i++ {
		if v, ok := ix.get(i); !ok || v != i {
			t.Fatalf("get(%d) = (%d,%v) after scan-cadence growth", i, v, ok)
		}
	}
}
