package metrics

import (
	"taq/internal/packet"
	"taq/internal/sim"
)

// HangTracker measures user-perceived hangs (§2.3): for each user
// (flow pool), the longest interval during which none of the user's
// connections delivered any data. Pool ids are dense client indexes,
// so the tracker keeps a table indexed by pool id, as long as the
// largest id seen; ids must not be negative.
type HangTracker struct {
	pools []poolHang // by pool id
	n     int        // pools started
}

// poolHang is one pool's row of the tracker.
type poolHang struct {
	last    sim.Time // time of last delivery (or start)
	max     sim.Time // longest silent gap so far
	started bool
}

// NewHangTracker returns an empty tracker.
func NewHangTracker() *HangTracker { return &HangTracker{} }

// Start registers a user pool at its session start time; the gap until
// its first delivery counts as a hang.
func (h *HangTracker) Start(pool packet.PoolID, at sim.Time) {
	for int(pool) >= len(h.pools) {
		h.pools = append(h.pools, poolHang{})
	}
	if p := &h.pools[pool]; !p.started {
		*p = poolHang{last: at, started: true}
		h.n++
	}
}

// Touch records a delivery for the pool at time at.
func (h *HangTracker) Touch(pool packet.PoolID, at sim.Time) {
	if int(pool) < len(h.pools) {
		if p := &h.pools[pool]; p.started {
			p.max = max(p.max, at-p.last)
			p.last = at
			return
		}
	}
	h.Start(pool, at)
}

// Finish closes every pool's trailing gap at the experiment end time.
func (h *HangTracker) Finish(at sim.Time) {
	for i := range h.pools {
		if p := &h.pools[i]; p.started {
			p.max = max(p.max, at-p.last)
		}
	}
}

// MaxHang returns the longest hang observed for the pool.
func (h *HangTracker) MaxHang(pool packet.PoolID) sim.Time {
	if int(pool) >= len(h.pools) {
		return 0
	}
	return h.pools[pool].max
}

// NumPools returns the number of tracked user pools.
func (h *HangTracker) NumPools() int { return h.n }

// FractionExceeding returns the fraction of pools whose longest hang
// is at least d.
func (h *HangTracker) FractionExceeding(d sim.Time) float64 {
	if h.n == 0 {
		return 0
	}
	n := 0
	for _, p := range h.pools {
		if p.started && p.max >= d {
			n++
		}
	}
	return float64(n) / float64(h.n)
}
