package core

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// ruling is the admission controller's answer to one pooled SYN: an
// obs.Admission* code, or ruleNone for a pool that was already
// admitted (nothing to count or trace).
type ruling uint8

const (
	ruleBlocked  = ruling(obs.AdmissionBlocked)
	ruleAdmitted = ruling(obs.AdmissionAdmitted)
	ruleForced   = ruling(obs.AdmissionForced)
	ruleNone     = ruling(255)
)

// poolInfo tracks one flow pool (a set of inter-related flows from the
// same application session, §4.3). Records live in the admission
// controller's flat slotTable (flowstore.go), not behind individual
// heap pointers, so the admission decision on the packet path does no
// Go map access.
type poolInfo struct {
	waitingSince sim.Time
	lastActive   sim.Time
	key          packet.PoolID
	admitted     bool
	waited       bool
	inUse        bool
}

// admission implements §4.3 flow-pool admission control: a flow is
// admitted if its pool is already admitted, or if the pool is new and
// the loss rate sits below a threshold slightly under p_thresh. Pools
// that wait are admitted in FIFO order, and every pool is guaranteed
// admission within Twait (chosen below the TCP SYN timeout so a
// retried SYN of a waiting pool gets through).
//
// The controller is clock-free: every entry point takes now from the
// caller. In a sharded middlebox the shards may run on separate
// engines, and the shared controller (owned by the Aggregator, under
// admMu) must do its Twait arithmetic on the calling shard's timeline.
type admission struct {
	pools   slotTable[poolInfo]
	waiting []packet.PoolID
	// lastForceAdmit paces Twait-guaranteed admissions to one pool
	// per Twait while the loss rate stays above the threshold.
	lastForceAdmit sim.Time
}

// threshold is the admit-below loss rate: p_thresh shaved by the
// congestion-avoidance margin. The product is taken in float64 at run
// time, 0.08000000000000002: folded as an exact constant it would be
// 0.08, and a loss rate of exactly 2/25 would be blocked.
func (a *admission) threshold() float64 {
	p, m := pThresh, admitMargin
	return p * (1 - m)
}

// allowSyn rules on the SYN of the given pool; waited reports whether
// a pool it admits had been queued first.
func (a *admission) allowSyn(now sim.Time, pool packet.PoolID, lossRate float64) (r ruling, waited bool) {
	if pool == packet.PoolNone {
		return ruleNone, false
	}
	slot, ok := a.pools.idx.get(int32(pool))
	if !ok {
		// alloc may relocate the whole record array; it returns the
		// slot and the record pointer is derived only afterward.
		slot = a.pools.alloc(pool)
		a.pools.recs[slot] = poolInfo{key: pool, inUse: true, waitingSince: now}
	}
	pi := &a.pools.recs[slot]
	pi.lastActive = now
	if pi.admitted {
		return ruleNone, false
	}
	headOfLine := len(a.waiting) == 0 || a.waiting[0] == pool
	switch {
	case headOfLine && now-pi.waitingSince >= twait && now-a.lastForceAdmit >= twait:
		// The Twait guarantee admits one waiting pool per Twait (the
		// head of the FIFO), pacing admissions under persistent
		// overload rather than opening the floodgates.
		a.lastForceAdmit = now
		a.admit(pool, pi)
		return ruleForced, pi.waited
	case headOfLine && lossRate < a.threshold():
		// Loss is low and this pool is next in line (or nobody waits).
		a.admit(pool, pi)
		return ruleAdmitted, pi.waited
	default:
		a.enqueueWaiting(pool)
		pi.waited = true
		return ruleBlocked, false
	}
}

// poolAdmitted reports whether the pool may send data packets.
func (a *admission) poolAdmitted(now sim.Time, pool packet.PoolID) bool {
	if pool == packet.PoolNone {
		return true
	}
	pi := a.pools.lookup(pool)
	if pi == nil {
		return false
	}
	pi.lastActive = now
	return pi.admitted
}

// admit marks the pool admitted. pi must have been derived after the
// last create (no create happens between derivation in allowSyn and
// this call).
func (a *admission) admit(pool packet.PoolID, pi *poolInfo) {
	pi.admitted = true
	a.removeWaiting(pool)
}

func (a *admission) enqueueWaiting(pool packet.PoolID) {
	for _, w := range a.waiting {
		if w == pool {
			return
		}
	}
	a.waiting = append(a.waiting, pool) //taq:allow noalloc bounded by waiting pools; amortized growth
}

func (a *admission) removeWaiting(pool packet.PoolID) {
	for i, w := range a.waiting {
		if w == pool {
			a.waiting = append(a.waiting[:i], a.waiting[i+1:]...)
			return
		}
	}
}

// expire evicts pools inactive longer than the flow expiry (waiting
// pools are kept: their Twait guarantee must survive). The walk runs in
// slot order over the flat table — deterministic, unlike the map
// iteration it replaced — and doubles as the index's off-packet-path
// growth point.
func (a *admission) expire(now sim.Time) {
	a.pools.idx.maybeGrow()
	for i := range a.pools.recs {
		pi := &a.pools.recs[i]
		if pi.inUse && pi.admitted && now-pi.lastActive > flowExpiry {
			a.pools.release(pi.key, int32(i))
		}
	}
}

// WaitingPools returns how many pools are queued for admission.
func (a *admission) waitingPools() int { return len(a.waiting) }

// expectedWait estimates how long the pool will wait before
// admission, assuming the loss rate stays above the threshold so
// admissions are Twait-paced FIFO. Zero for admitted or unknown pools.
// §4.3: a proxy-mode middlebox can surface this to the user as "a
// visible queue of requests with expected wait times".
func (a *admission) expectedWait(now sim.Time, pool packet.PoolID) sim.Time {
	pi := a.pools.lookup(pool)
	if pi == nil || pi.admitted {
		return 0
	}
	pos := -1
	for i, w := range a.waiting {
		if w == pool {
			pos = i
			break
		}
	}
	if pos < 0 {
		return 0
	}
	// Head of line: the remainder of its own (and the pacer's) Twait.
	headWait := twait - (now - a.pools.lookup(a.waiting[0]).waitingSince)
	if pace := twait - (now - a.lastForceAdmit); pace > headWait {
		headWait = pace
	}
	if headWait < 0 {
		headWait = 0
	}
	return headWait + sim.Time(pos)*twait
}
