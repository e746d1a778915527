package core

import (
	"taq/internal/sim"
)

// deadlineEntry is one lazily-deleted heap entry: the flow in slot had
// deadline dl when the entry was pushed, and gen was the record's
// generation at that moment. Entries are never removed in place — a
// flow whose deadline moves later, or that is evicted (its slot
// recycled through the store's free list with a bumped generation),
// simply leaves a stale entry behind. Poppers resolve the slot back to
// a record, validate gen, and re-derive the live deadline, so a stale
// entry costs one pop and nothing else. Storing the 4-byte slot id
// instead of a *flowInfo keeps the entry at 16 bytes and pointer-free:
// the heap never extends a record's lifetime and is safe across
// record-array growth.
type deadlineEntry struct {
	dl   sim.Time
	slot int32
	gen  uint32
}

// deadlineHeap is a 4-ary min-heap of deadlineEntry ordered by dl.
// 4-ary rather than binary for the same reason as the engine's timer
// heap: shallower sift paths and better cache behavior on the dominant
// pop-then-push cycle. The backing slice retains its capacity, so a
// tracker in steady state pushes and pops with zero allocations.
//
//taq:shardowned deadline heaps index the shard's own flow slots
type deadlineHeap struct {
	a []deadlineEntry
}

func (h *deadlineHeap) len() int { return len(h.a) }

func (h *deadlineHeap) push(dl sim.Time, f *flowInfo) {
	h.a = append(h.a, deadlineEntry{dl: dl, slot: f.slot, gen: f.gen}) //taq:allow noalloc amortized heap growth; capacity is retained across scans
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h.a[parent].dl <= h.a[i].dl {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

// peek returns the earliest entry without removing it.
func (h *deadlineHeap) peek() (deadlineEntry, bool) {
	if len(h.a) == 0 {
		return deadlineEntry{}, false
	}
	return h.a[0], true
}

// pop removes and returns the earliest entry.
func (h *deadlineHeap) pop() deadlineEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = deadlineEntry{}
	h.a = h.a[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *deadlineHeap) siftDown(i int) {
	n := len(h.a)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.a[c].dl < h.a[min].dl {
				min = c
			}
		}
		if h.a[i].dl <= h.a[min].dl {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}
