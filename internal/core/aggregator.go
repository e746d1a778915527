package core

import (
	"math"
	"sync"
	"sync/atomic"

	"taq/internal/packet"
	"taq/internal/sim"
)

// Aggregator is the cross-shard spine of a sharded TAQ middlebox: the
// loss-rate window and the §4.3 pool admission controller, the only
// state the shards share. Everything else — tracker, flow store, class
// queues, scheduler accounting — is //taq:shardowned and never crosses
// a shard boundary (DESIGN.md §12).
//
// Both live here for the same reason: they are definitionally global.
// The loss window measures congestion at the *bottleneck*, which all
// shards jointly form — a per-shard window would let an unlucky shard
// report loss the link as a whole is not seeing. Admission is a FIFO
// over pools with a Twait guarantee; pools span flows, flows hash to
// different shards, so the queue and its pacer must be singletons or
// the FIFO order and the one-pool-per-Twait pacing both break.
//
// The window counters are lock-free atomics — the per-packet cost of
// sharing them is one uncontended atomic add. The admission seam is a
// mutex: it runs only on SYNs of pooled flows and on data of pooled
// flows while admission control is enabled, a small slice of the
// packet path, and its critical section is a flat-table probe.
//
// With one shard — one caller — the atomics and the uncontended mutex
// are sequentially exact, so the single-shard middlebox is bit-for-bit
// deterministic.
type Aggregator struct {
	cfg Config

	// Loss-rate monitor over sliding windows, shared by all shards.
	// Reads under concurrency are transiently approximate (a roll moves
	// win→prev in two stores); the consumer is a control loop sampling
	// at scan cadence, so a one-packet skew is noise. Single-threaded,
	// the values are exact.

	// winStart is the sim.Time the current window opened, as int64.
	winStart atomic.Int64
	// winGen counts window rolls; shards roll their windowed serve
	// counters when they observe it advance, so the Level-1 recovery
	// cap stays aligned with the loss window without sharing the
	// scheduler counters themselves.
	winGen  atomic.Uint64
	winArr  atomic.Uint64
	winDrop atomic.Uint64
	prevArr atomic.Uint64
	prevDrp atomic.Uint64
	// lossEWMA holds math.Float64bits of the smoothed per-window loss
	// rate (the telemetry companion of LossRate).
	lossEWMA atomic.Uint64

	// rollMu serializes window rolls (rare: once per LossWindow); the
	// packet-path increments never take it.
	rollMu sync.Mutex

	// admMu guards the admission controller and lastExpire. Admission
	// is inherently cross-shard (pool FIFO + Twait pacing are global),
	// so its flat pool table stays single-writer under this lock.
	admMu      sync.Mutex
	adm        admission
	lastExpire sim.Time
}

// newAggregator creates the shared state for a bank of shards, with
// the loss window opening at now.
func newAggregator(cfg Config, now sim.Time) *Aggregator {
	g := &Aggregator{cfg: cfg, adm: admission{cfg: cfg}}
	g.winStart.Store(int64(now))
	return g
}

// noteArrival counts one arrival into the shared loss window.
//
//taq:crossshard per-packet touch on shared state: one atomic add, no lock
func (g *Aggregator) noteArrival() { g.winArr.Add(1) }

// noteDrop counts one congestion drop into the shared loss window.
//
//taq:crossshard per-packet touch on shared state: one atomic add, no lock
func (g *Aggregator) noteDrop() { g.winDrop.Add(1) }

// uncountArrival removes a policy-dropped packet from the window's
// arrival count (see TAQ.dropPolicy): blocked storms must neither
// inflate nor dilute the congestion signal. The floor-at-zero guard of
// the pre-shard code becomes a CAS loop so concurrent shards cannot
// drive the counter below zero.
//
//taq:crossshard per-packet touch on shared state: lock-free CAS, no lock
func (g *Aggregator) uncountArrival() {
	for {
		v := g.winArr.Load()
		if v == 0 {
			return
		}
		if g.winArr.CompareAndSwap(v, v-1) {
			return
		}
	}
}

// lossRate returns the drop fraction over roughly the last two loss
// windows — the admission-control input.
//
//taq:crossshard control-loop read of shared window counters: atomic loads only
func (g *Aggregator) lossRate() float64 {
	arr := g.winArr.Load() + g.prevArr.Load()
	if arr == 0 {
		return 0
	}
	return float64(g.winDrop.Load()+g.prevDrp.Load()) / float64(arr)
}

// lossEWMAValue returns the smoothed loss rate, updated once per roll.
//
//taq:crossshard telemetry read of shared window state: one atomic load
func (g *Aggregator) lossEWMAValue() float64 {
	return math.Float64frombits(g.lossEWMA.Load())
}

// maybeRoll advances the loss window if it has run its course and
// returns the current window generation. The first shard whose scan
// crosses the boundary performs the roll; racers and later scans see
// the advanced winStart and return the fresh generation, which tells
// them to roll their own windowed serve counters.
//
//taq:crossshard window roll runs at scan cadence, serialized by rollMu
func (g *Aggregator) maybeRoll(now sim.Time) uint64 {
	if now-sim.Time(g.winStart.Load()) < g.cfg.LossWindow {
		return g.winGen.Load()
	}
	g.rollMu.Lock()
	defer g.rollMu.Unlock()
	if now-sim.Time(g.winStart.Load()) < g.cfg.LossWindow {
		// Another shard rolled while we waited for the lock.
		return g.winGen.Load()
	}
	// Swap, not Load+Store: increments racing the roll land in either
	// the closing window or the fresh one, never in both or neither.
	arr := g.winArr.Swap(0)
	drp := g.winDrop.Swap(0)
	var rate float64
	if arr > 0 {
		rate = float64(drp) / float64(arr)
	}
	g.lossEWMA.Store(math.Float64bits(0.875*math.Float64frombits(g.lossEWMA.Load()) + 0.125*rate))
	g.prevArr.Store(arr)
	g.prevDrp.Store(drp)
	g.winStart.Store(int64(now))
	return g.winGen.Add(1)
}

// allowSyn is the cross-shard admission gate for SYNs of pooled flows
// (§4.3). now is the calling shard's clock: shards may run on separate
// engines, and the Twait arithmetic must use the caller's timeline. It
// returns the ruling and whether an admitted pool had waited; the
// calling shard counts and traces it.
//
//taq:crossshard admission FIFO and Twait pacer are global across shards by definition
//taq:allow(func) noblock admission seam: bounded flat-table critical section under admMu, taken only for pooled SYNs
func (g *Aggregator) allowSyn(now sim.Time, pool packet.PoolID, lossRate float64) (ruling, bool) {
	g.admMu.Lock()
	r, waited := g.adm.allowSyn(now, pool, lossRate)
	g.admMu.Unlock()
	return r, waited
}

// poolAdmitted reports whether the pool may send data packets, and
// refreshes its activity stamp.
//
//taq:crossshard pool admission state is global across shards by definition
//taq:allow(func) noblock admission seam: one index probe under admMu, taken only for pooled data while admission control is on
func (g *Aggregator) poolAdmitted(now sim.Time, pool packet.PoolID) bool {
	g.admMu.Lock()
	ok := g.adm.poolAdmitted(now, pool)
	g.admMu.Unlock()
	return ok
}

// expireAdmission evicts stale pools, at most once per ScanInterval
// across all shards — every shard's scan calls it, the gate dedups.
//
//taq:crossshard pool expiry walks the shared admission table at scan cadence
func (g *Aggregator) expireAdmission(now sim.Time) {
	g.admMu.Lock()
	if now-g.lastExpire >= g.cfg.ScanInterval {
		g.lastExpire = now
		g.adm.expire(now)
	}
	g.admMu.Unlock()
}

// waitingPools returns how many pools are queued for admission.
//
//taq:crossshard gauge read of the shared admission queue
func (g *Aggregator) waitingPools() int {
	g.admMu.Lock()
	n := g.adm.waitingPools()
	g.admMu.Unlock()
	return n
}

// expectedWait estimates the pool's wait before admission (§4.3 user
// feedback); now is the calling shard's clock.
//
//taq:crossshard gauge read of the shared admission queue
func (g *Aggregator) expectedWait(now sim.Time, pool packet.PoolID) sim.Time {
	g.admMu.Lock()
	w := g.adm.expectedWait(now, pool)
	g.admMu.Unlock()
	return w
}
