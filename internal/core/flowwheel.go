package core

import (
	"taq/internal/sim"
)

// wheelEntry is one lazily-deleted wheel entry: the flow in slot, as of
// generation gen. It carries no deadline — the record's mirror (actDl
// or scanDl) is the flow's one live deadline on each wheel, and the
// drain visitor decides every walked entry from it. Entries are never
// removed in place — a flow whose deadline moves, or that is evicted
// (its slot recycled through the store's free list with a bumped
// generation), simply leaves a stale entry behind, which costs one
// visit and nothing else. Storing the 4-byte slot id instead of a
// *flowInfo keeps the entry at 8 bytes and pointer-free: the wheel
// never extends a record's lifetime and is safe across record-array
// growth.
type wheelEntry struct {
	slot int32
	gen  uint32
}

// handle returns the entry that files f on a wheel.
func (f *flowInfo) handle() wheelEntry {
	return wheelEntry{slot: f.slot, gen: f.gen}
}

// chunkEntries is the one design number of the wheel: entries per
// chunk. Every occupied wheel slot owns at least one chunk, so the
// chunk must be small enough that a 60-flow tracker's two wheels stay
// in tens of KB (127-entry chunks tripled that tracker's heap), and
// large enough that a million-flow slot is a short chain of full cache
// lines. Fifteen entries plus the header is 128 bytes — two lines.
const chunkEntries = 15

// wheelChunk is a fixed-size run of entries on one wheel slot's chain
// (or on the arena's free list). Chunks name each other by arena id,
// never by pointer, so the arena is invisible to the garbage collector
// and may grow while a chain is being walked.
//
//taq:shardowned deadline chunks index the shard's own flow slots
type wheelChunk struct {
	e    [chunkEntries]wheelEntry
	n    int32 // entries in use
	next int32 // id of the next chunk on the chain or free list; 0 ends it
}

// chunkArena is the per-tracker pool both deadline wheels draw their
// chunks from. A chunk id is its index plus one, so the zero value of a
// slot head, a next link and the free-list head all mean "none".
//
//taq:shardowned one chunk pool per tracker, shared by its two wheels
type chunkArena struct {
	chunks []wheelChunk
	free   int32
}

// get returns the id of an empty chunk whose next link is next.
func (a *chunkArena) get(next int32) int32 {
	id := a.free
	if id != 0 {
		a.free = a.chunks[id-1].next
	} else {
		if n := len(a.chunks); n == cap(a.chunks) {
			// Grow by a sixteenth, not by append's quarter: the arena
			// is most of what a small tracker's wheels weigh, and its
			// slack is pure heap (a 4096-flow table carried 100 KB of
			// it). Still geometric, so a push stays amortized O(1).
			grown := make([]wheelChunk, n, n+max(n/16, 16)) //taq:allow noalloc amortized arena growth; drained chunks are free-list recycled
			copy(grown, a.chunks)
			a.chunks = grown
		}
		a.chunks = a.chunks[:len(a.chunks)+1]
		id = int32(len(a.chunks))
	}
	c := &a.chunks[id-1]
	c.n, c.next = 0, next
	return id
}

func (a *chunkArena) put(id int32) {
	a.chunks[id-1].next = a.free
	a.free = id
}

// maxWheelSlots bounds the slot array when a configuration asks for a
// very fine scan interval; the wheel stays exact past its horizon (see
// drain), it only re-files the far entries once per revolution.
const maxWheelSlots = 1 << 16

// deadlineWheel is a hashed timing wheel over wheelEntry: an entry
// pushed under deadline dl is filed in slot (dl/width)&mask, a chain of
// chunks; push is O(1), and drain hands the entries of every slot up
// to now to a visitor that decides each from its record. It replaces a
// min-heap because neither consumer needs order: both run at scan
// cadence, the scan sorts its due list by flow id and the activity
// pass's per-entry effects commute, so only the due set matters — and
// the visitor decides that with the exact mirror < now comparison,
// never by the slot an entry sits in. The slot mapping, the horizon
// and the revolutions are an index that bounds how many entries a
// drain looks at.
//
// cur is the watermark: every slot before it has been drained of the
// entries that mapped to it. A push whose deadline already lies behind
// the watermark is filed in slot cur, so the next drain still finds it.
// So a flow's live entry is in the slot of its deadline or, if that
// was behind the watermark at the push, in slot cur. low is a lower
// bound on every deadline pushed and not yet drained, which lets a
// drain that can find nothing due — a gauge read between two scans —
// return without walking the current slot again.
//
//taq:shardowned deadline wheels index the shard's own flow slots
type deadlineWheel struct {
	arena *chunkArena
	heads []int32 // per slot: id of the chain's first chunk, the only one that may be partly filled
	width sim.Time
	mask  int64
	cur   int64 // unmasked slot number of the watermark
	n     int   // entries held
	low   sim.Time
}

// newDeadlineWheel returns a wheel of the given slot width whose
// revolution covers span (plus the current and the clamped slot).
func newDeadlineWheel(a *chunkArena, width, span sim.Time) deadlineWheel {
	if width <= 0 {
		width = sim.Millisecond
	}
	slots := int64(1)
	for slots < int64(span/width)+2 && slots < maxWheelSlots {
		slots <<= 1
	}
	return deadlineWheel{arena: a, heads: make([]int32, slots), width: width, mask: slots - 1}
}

// push files e under deadline dl.
func (w *deadlineWheel) push(e wheelEntry, dl sim.Time) {
	s := int64(dl / w.width)
	if dl < sim.Time(w.cur)*w.width {
		s = w.cur
	}
	if dl < w.low {
		w.low = dl
	}
	head := &w.heads[s&w.mask]
	if *head == 0 || w.arena.chunks[*head-1].n == chunkEntries {
		*head = w.arena.get(*head)
	}
	c := &w.arena.chunks[*head-1]
	c.e[c.n] = e
	c.n++
	w.n++
}

// drain advances the watermark to now and calls visit for every entry
// on the slots from the old watermark to the one holding now-1 — each
// of them once when the gap exceeds a revolution — in no particular
// order. It detaches a slot's chain before visiting it, so visit may
// push. visit handles a due entry and returns 0, drops a stale one by
// returning 0, and returns the live deadline of an entry that is not
// due yet; drain re-files that entry when the deadline maps to the
// slot being walked (a later revolution, or the part of the current
// slot after now) and drops it otherwise — the flow's live entry is
// then filed in the deadline's own slot. Every live deadline that has
// passed lies on a walked slot, so every due flow is visited. (An
// entry visit pushes that is itself already due is not lost: it is
// visited by this drain or the next one.)
func (w *deadlineWheel) drain(now sim.Time, visit func(wheelEntry) sim.Time) {
	first := w.cur
	if s := int64(now / w.width); s > first {
		w.cur = s
	}
	if w.n == 0 || now <= w.low {
		return
	}
	w.low = now // unwalked slots hold no deadline before now; re-filing and visit's pushes may lower it
	last := min(max(int64((now-sim.Nanosecond)/w.width), first), first+w.mask)
	a := w.arena
	for s := first; s <= last; s++ {
		id := w.heads[s&w.mask]
		w.heads[s&w.mask] = 0
		for id != 0 {
			c := a.chunks[id-1] // by value: visit may push and grow the arena
			a.put(id)
			w.n -= int(c.n)
			for _, e := range c.e[:c.n] {
				if dl := visit(e); dl != 0 && int64(dl/w.width)&w.mask == s&w.mask {
					w.push(e, dl)
				}
			}
			id = c.next
		}
	}
}
