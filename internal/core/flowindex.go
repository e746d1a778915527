package core

import "math/bits"

// oaIndex is a stdlib-only open-addressed hash table mapping int32
// keys (FlowID or PoolID values) to int32 slot ids in a flat record
// array. It exists so the per-packet flow lookup does no Go map access
// and no allocation: probes are linear over two parallel int32 arrays
// (8 bytes per bucket, 16 buckets per cache line between them), the
// capacity is a power of two, and deletion backshifts displaced
// entries instead of leaving tombstones, so probe chains never rot
// under churn.
//
// Growth doubles the arrays and rehashes. The tracker calls maybeGrow
// from the periodic scan, so in steady state doubling happens off the
// packet path; put keeps a higher emergency threshold only as a safety
// net for bursts that outrun a scan interval.
//
// TestRecordLayout keeps the table header exactly one cache line: the
// two slice headers, the hash parameters, and the count all land in
// the line the first probe already pulled in.
//
//taq:shardowned the FlowID→slot index is per-shard by construction (flows hash to exactly one shard)
type oaIndex struct {
	keys  []int32
	slots []int32 // parallel to keys; idxEmpty marks a free bucket
	mask  uint32  // len(slots) - 1
	shift uint32  // 32 - log2(len(slots)), for Fibonacci hashing
	n     int     // live entries
}

// idxEmpty marks an unoccupied bucket. Slot ids are array indexes and
// therefore never negative.
const idxEmpty = int32(-1)

// home returns the preferred bucket of key k: Fibonacci hashing
// (multiply by 2^32/φ, keep the top bits) spreads the sequential ids
// the simulator hands out evenly across the table.
func (ix *oaIndex) home(k int32) uint32 {
	return (uint32(k) * 0x9E3779B9) >> ix.shift
}

// get returns the slot stored for k.
func (ix *oaIndex) get(k int32) (int32, bool) {
	if ix.n == 0 {
		return 0, false
	}
	mask := ix.mask
	for i := ix.home(k); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == idxEmpty {
			return 0, false
		}
		if ix.keys[i] == k {
			return s, true
		}
	}
}

// put inserts k→slot. k must not already be present (flow creation is
// guarded by a failed lookup). The emergency growth check keeps the
// load factor below 7/8 even if arrivals outrun the scan-cadence
// maybeGrow; the table is therefore never full and probes terminate.
func (ix *oaIndex) put(k, slot int32) {
	if ix.slots == nil || ix.n >= len(ix.slots)-len(ix.slots)/8 {
		ix.grow()
	}
	mask := ix.mask
	i := ix.home(k)
	for ix.slots[i] != idxEmpty {
		i = (i + 1) & mask
	}
	ix.keys[i], ix.slots[i] = k, slot
	ix.n++
}

// del removes k, backshifting the probe chain behind it: every
// displaced entry that the hole separates from its home bucket moves
// back, so lookups never need tombstones and chains stay as short as
// a fresh insert order would make them.
func (ix *oaIndex) del(k int32) {
	if ix.n == 0 {
		return
	}
	mask := ix.mask
	i := ix.home(k)
	for {
		if ix.slots[i] == idxEmpty {
			return // not present
		}
		if ix.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	// Backshift: an entry at j may move into the hole at i iff moving
	// does not jump it past its home bucket — i.e. its probe distance
	// (j - home) covers the distance from the hole (j - i).
	j := i
	for {
		j = (j + 1) & mask
		if ix.slots[j] == idxEmpty {
			break
		}
		if (j-ix.home(ix.keys[j]))&mask >= (j-i)&mask {
			ix.keys[i], ix.slots[i] = ix.keys[j], ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = idxEmpty
	ix.n--
}

// maybeGrow doubles the table once load reaches 5/8. The tracker calls
// it at scan cadence so the copy runs on the control loop, not under a
// packet.
func (ix *oaIndex) maybeGrow() {
	if ix.slots != nil && ix.n >= len(ix.slots)/2+len(ix.slots)/8 {
		ix.grow()
	}
}

// grow doubles capacity (first call provisions 64 buckets) and
// rehashes every live entry.
func (ix *oaIndex) grow() {
	newCap := 64
	if len(ix.slots) > 0 {
		newCap = len(ix.slots) * 2
	}
	oldKeys, oldSlots := ix.keys, ix.slots
	ix.keys = make([]int32, newCap)  //taq:allow noalloc amortized index doubling, normally run at scan cadence (maybeGrow)
	ix.slots = make([]int32, newCap) //taq:allow noalloc amortized index doubling, normally run at scan cadence (maybeGrow)
	ix.mask = uint32(newCap - 1)
	ix.shift = uint32(32 - bits.TrailingZeros(uint(newCap)))
	for i := range ix.slots {
		ix.slots[i] = idxEmpty
	}
	mask := ix.mask
	for b, s := range oldSlots {
		if s == idxEmpty {
			continue
		}
		k := oldKeys[b]
		i := ix.home(k)
		for ix.slots[i] != idxEmpty {
			i = (i + 1) & mask
		}
		ix.keys[i], ix.slots[i] = k, s
	}
}
