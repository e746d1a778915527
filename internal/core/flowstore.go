package core

import "taq/internal/packet"

// flowStore owns every flowInfo record in dense pages, indexed by slot
// id. Records are recycled through a free list rather than freed,
// and each record carries a generation that release bumps, so a slot
// handle (slot, gen) taken earlier — a deadline-wheel entry — is
// detectably stale after the slot is recycled for another flow. The
// oaIndex maps FlowID → slot so the per-packet lookup is two array
// probes instead of a Go map access and a pointer chase to a separately
// heap-allocated record.
//
// Records live in pages of recPageLen: every page but the last is
// full, and the last grows by doubling up to a page, so the table
// carries at most one partly filled page of slack at any size. (A
// single slice grown by append would carry up to a quarter of itself,
// wherever its capacity steps happen to fall: for the mbox-1m
// benchmark's 585 k-flow table that is 0.2 % on one seed and 25 % on
// the next.)
//
// Pointer discipline: a record pointer is stable for the lifetime of
// one tracker operation — only alloc can move records (when it doubles
// the last page), and no caller holds a record pointer across a flow
// creation. Anything held longer (wheel entries) stores the slot id and
// re-derives the pointer.
//
//taq:shardowned the flow-record arena; one per shard, never shared
type flowStore struct {
	pages [][]flowInfo
	n     int32   // slots handed out: the table's high-water mark
	free  []int32 // recycled slots, LIFO
	idx   oaIndex // FlowID → slot
}

// recPageBits sizes a record page: 4096 records, 672 KB.
const (
	recPageBits = 12
	recPageLen  = 1 << recPageBits
)

// lookup returns the record tracking id, or nil.
func (s *flowStore) lookup(id packet.FlowID) *flowInfo {
	slot, ok := s.idx.get(int32(id))
	if !ok {
		return nil
	}
	return s.at(slot)
}

// resolve returns the record tracking id, given slot, a handle taken
// when id was last seen: the record there if it is still id's, else
// whatever the index says. Only one live record carries a given id,
// so the answer is always lookup(id); the probe is skipped when the
// handle still holds.
func (s *flowStore) resolve(id packet.FlowID, slot int32) *flowInfo {
	if uint32(slot) < uint32(s.n) {
		if f := s.at(slot); f.id == id && f.has(flagLive) {
			return f
		}
	}
	return s.lookup(id)
}

// alloc files a zeroed record for id (which must not be tracked) and
// returns it. Recycled records keep their bumped generation so stale
// wheel entries pointing at the old occupant stay invalid.
func (s *flowStore) alloc(id packet.FlowID) *flowInfo {
	var f *flowInfo
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		f = s.at(slot)
		*f = flowInfo{slot: slot, gen: f.gen} // gen survives recycling; bumped at release
	} else {
		f = s.grow()
	}
	f.id, f.flags = id, flagLive
	s.idx.put(int32(id), f.slot)
	return f
}

// grow appends a zeroed record in slot n to the last page, opening a
// page when the last one is full.
func (s *flowStore) grow() *flowInfo {
	slot := s.n
	s.n++
	pg := int(slot >> recPageBits)
	if pg == len(s.pages) {
		s.pages = append(s.pages, nil) //taq:allow noalloc one page header per 4096 flows; evicted slots are free-list recycled
	}
	p := &s.pages[pg]
	if n := len(*p); n == cap(*p) {
		grown := make([]flowInfo, n, min(max(2*n, 16), recPageLen)) //taq:allow noalloc amortized page doubling, at most one partly filled page; evicted slots are free-list recycled
		copy(grown, *p)
		*p = grown
	}
	*p = (*p)[:len(*p)+1]
	f := &(*p)[len(*p)-1]
	f.slot = slot
	return f
}

// release unfiles f: the FlowID mapping is deleted, the generation is
// bumped (invalidating any outstanding slot handles), and the slot goes
// on the free list for reuse.
func (s *flowStore) release(f *flowInfo) {
	s.idx.del(int32(f.id))
	f.gen++
	f.set(flagLive, false)
	s.free = append(s.free, f.slot)
}

// at returns the record in slot, live or not — callers holding a
// (slot, gen) handle check gen themselves.
func (s *flowStore) at(slot int32) *flowInfo {
	return &s.pages[slot>>recPageBits][slot&(recPageLen-1)]
}

// len returns the number of live (tracked) records.
func (s *flowStore) len() int { return s.idx.n }

// slotTable is the flat per-pool table, written once for its two users
// (the tracker's active counts below, the admission controller's
// poolInfo records): records in a slice, a LIFO free list of recycled
// slots, and an oaIndex from PoolID → slot, so per-pool state on the
// packet path costs no Go map access. It calls no method of T and
// reads no field of it — owners keep the key (and anything else) in
// the record themselves — so each instantiation compiles to the code
// its hand-written predecessor had.
//
// Pointer discipline: alloc can grow recs and relocate every record,
// so a *T must never be held across an alloc — work with slots and
// re-derive &recs[slot] after any call that may file a record
// (TestPoolRecordPointersMoveOnCreate pins the hazard; flowStore above
// states the same rule for flow records).
type slotTable[T any] struct {
	recs []T
	free []int32
	idx  oaIndex // PoolID → slot
}

// lookup returns pool's record, or nil. The pointer is valid only
// until the next alloc (see the type comment).
func (st *slotTable[T]) lookup(pool packet.PoolID) *T {
	slot, ok := st.idx.get(int32(pool))
	if !ok {
		return nil
	}
	return &st.recs[slot]
}

// alloc files a zero record for pool (which must be absent) and
// returns its slot — the slot, not a pointer, precisely because the
// append below may have moved every existing record.
func (st *slotTable[T]) alloc(pool packet.PoolID) int32 {
	var slot int32
	if n := len(st.free); n > 0 {
		slot = st.free[n-1]
		st.free = st.free[:n-1]
	} else {
		slot = int32(len(st.recs))
		var zero T
		st.recs = append(st.recs, zero) //taq:allow noalloc amortized pool-array growth; released slots are free-list recycled
	}
	st.idx.put(int32(pool), slot)
	return slot
}

// release unfiles pool, zeroes its record in slot (a record's zero
// value is the free state) and recycles the slot.
func (st *slotTable[T]) release(pool packet.PoolID, slot int32) {
	st.idx.del(int32(pool))
	var zero T
	st.recs[slot] = zero
	st.free = append(st.free, slot)
}

// poolTable is the tracker's per-pool active counts: a slotTable of
// poolEntry records refcounted by the flows keyed to the pool, so a
// flow's poolSlot stays valid for exactly as long as the flow itself
// is tracked; no generation check is needed.
//
//taq:shardowned per-pool counters follow their flows' shard
type poolTable struct{ slotTable[poolEntry] }

// ref takes one reference on pool's entry, creating it if absent, and
// returns the entry's slot for storing in the flow record.
func (pt *poolTable) ref(pool packet.PoolID) int32 {
	if slot, ok := pt.idx.get(int32(pool)); ok {
		pt.recs[slot].refs++
		return slot
	}
	slot := pt.alloc(pool)
	pt.recs[slot] = poolEntry{key: pool, refs: 1}
	return slot
}

// unref drops one reference on the entry in slot; at zero the entry is
// unfiled and the slot recycled.
func (pt *poolTable) unref(slot int32) {
	e := &pt.recs[slot]
	e.refs--
	if e.refs <= 0 {
		pt.release(e.key, slot)
	}
}
