package core

import (
	"math"
	"slices"

	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// FlowState is the middlebox's approximate classification of a flow
// (§3.3, Fig 7). It is inferred purely from observations at the
// middlebox — packet counts per epoch, highest sequence, retransmitted
// packets, drops at the TAQ queue, and silences — never from sender
// state.
type FlowState uint8

const (
	// StateNew: SYN seen, no data yet.
	StateNew FlowState = iota
	// StateSlowStart: significant growth in new packets per epoch.
	StateSlowStart
	// StateNormal: steady progress, no losses at the TAQ queue.
	StateNormal
	// StateLossRecovery: the middlebox dropped one of the flow's
	// packets and expects retransmissions ("explicit loss recovery").
	StateLossRecovery
	// StateTimeoutSilence: the flow stopped sending after losses; it
	// is presumed waiting out an RTO.
	StateTimeoutSilence
	// StateTimeoutRecovery: retransmissions after a timeout silence.
	StateTimeoutRecovery
	// StateExtendedSilence: silence spanning multiple epochs beyond a
	// timeout — the repetitive-timeout regime.
	StateExtendedSilence
	// StateIdleSilence: a healthy flow with nothing to send (the
	// dummy state for pipelined connections between objects).
	StateIdleSilence

	numFlowStates = int(StateIdleSilence) + 1
)

// stateLabels is the one label table for FlowState.
var stateLabels = [numFlowStates]enumLabel{
	StateNew:             {"New", "new"},
	StateSlowStart:       {"SlowStart", "slowstart"},
	StateNormal:          {"Normal", "normal"},
	StateLossRecovery:    {"LossRecovery", "lossrecovery"},
	StateTimeoutSilence:  {"TimeoutSilence", "timeoutsilence"},
	StateTimeoutRecovery: {"TimeoutRecovery", "timeoutrecovery"},
	StateExtendedSilence: {"ExtendedSilence", "extendedsilence"},
	StateIdleSilence:     {"IdleSilence", "idlesilence"},
}

// String implements fmt.Stringer.
func (s FlowState) String() string {
	if int(s) >= numFlowStates {
		return "Unknown"
	}
	return stateLabels[s].name
}

// StateLabels returns the tracker-state label values in FlowState
// order.
func StateLabels() []string { return labelColumn(stateLabels[:]) }

// flowInfo is the per-flow record the middlebox maintains (§3.3: new
// packets per epoch, highest sequence number, losses in the previous
// epoch — plus the state-machine bookkeeping).
//
// Records live in the flowStore's flat slice, not behind individual
// heap pointers, so the layout is packed for that shape and for a
// million of them: a 20-byte identity/flag header, then the per-packet
// hot core (the int32 epoch counters, then the epoch clocks, deadlines
// and rate), then the warm silence/recovery fields, then the cold
// two-way RTT sampler. Nothing is stored that can be derived: the pool
// is the key of the pool entry poolSlot pins, and a counted flow's
// share of the inverse-epoch sum is invTermFor(epoch), kept exact by
// setEpoch. Counters are int32 — packet counts per flow never approach
// 2^31, and the epoch count saturates (addEpochs) — and sequence
// numbers mirror packet.Packet's int Seq but saturate far below 2^31
// in every workload the simulator can express. bytes saturates at
// 4 GiB per epoch (DESIGN.md §7). sim.Time fields stay int64:
// narrowing timestamps would change behavior.
//
// TestRecordLayout holds the record at its current 168 bytes and the
// per-packet hot core (identity header through rateEWMA) at [0, 112);
// a field added or reordered here is a deliberate layout decision, not
// a drive-by.
//
//taq:shardowned per-flow record, owned by the tracker's flow store
type flowInfo struct {
	// Identity and slot plumbing (read on every lookup).
	id packet.FlowID
	// slot is this record's index in the flowStore; poolSlot is the
	// pool's entry in the tracker's poolTable (idxEmpty for pool-less
	// flows). Both are stable for the record's tracked lifetime.
	slot     int32
	poolSlot int32
	// gen is bumped every time this record is evicted, invalidating
	// any wheel entries that still reference the slot (slots are
	// recycled through the store's free list).
	gen   uint32
	state FlowState
	// lastClass is the TAQ class the flow's previous packet was
	// assigned (-1 before the first classification), so class-change
	// trace events fire only on actual changes.
	lastClass int8
	flags     flowFlags
	// protectEpochs counts down epochs during which a flow that just
	// recovered keeps elevated (OverPenalized-queue) protection: the
	// loss of the first new packets after a timeout escalates the
	// remembered backoff (§4.1), so they must not be the next victims.
	// It is set to 2 and only counts down.
	protectEpochs uint8

	// Per-packet hot core: the current-/previous-epoch counters, then
	// epoch (middlebox-perceived RTT) estimation, deadlines and rate.
	newPkts, prevNewPkts int32
	drops, prevDrops     int32
	epochs               int32 // epochs observed since creation, saturating
	highSeq              int32 // highest data sequence observed
	// outstandingDrops counts packets TAQ dropped that have not yet
	// been seen retransmitted.
	outstandingDrops int32
	bytes            uint32 // bytes forwarded-or-queued this epoch, saturating
	// sampleSeq is the data segment awaiting its ack (-1 when idle),
	// read on every forwarded packet; it fills the int32 run.
	sampleSeq int32

	// epoch is written only through tracker.setEpoch.
	epoch      sim.Time
	epochStart sim.Time
	// rolledTo is the time through which the flow's epoch counters
	// have been rolled (see catchUp).
	rolledTo sim.Time
	lastPkt  sim.Time // last packet observed (any kind)
	// actDl and scanDl mirror the earliest live entry for this flow on
	// the activity and scan wheels (0 = none); pushes are elided
	// unless they move the earliest deadline, and a drain decides each
	// walked entry from them (see advanceActivity).
	actDl, scanDl sim.Time
	// rateEWMA estimates the flow's throughput in bits/second.
	rateEWMA float64

	// Warm: silence and recovery bookkeeping.

	// synBurst is a union: until the first data packet it holds the
	// SYN time (seeding the epoch estimate from the SYN→data gap);
	// once flagGotData is set it holds the start of the current packet
	// burst. The two uses never overlap — the SYN time is read only
	// in the first-data branch, and burst tracking starts there.
	synBurst     sim.Time
	silenceStart sim.Time // when the current presumed-RTO silence began
	// lastSilence remembers the length of the flow's most recent
	// silence episode; it keys the Recovery queue priority for the
	// whole retransmission burst that follows the silence.
	lastSilence sim.Time

	// Cold: two-way RTT sampling (§3.3 "conventional mode": TAQ
	// observes two-way traffic, making it relatively easy to estimate
	// RTT). The downstream half is the gap from forwarding a data
	// segment to seeing its ack return; the upstream half is the gap
	// from that ack to the new data it releases from the sender.
	sampleAt  sim.Time
	downRTT   sim.Time // EWMA of the downstream half
	upRTT     sim.Time // EWMA of the upstream half
	lastAckAt sim.Time // when the last returning ack was observed
}

// flowFlags are the record's booleans, one bit each.
type flowFlags uint8

const (
	// flagLive distinguishes live records from free-listed ones when
	// the store's record array is walked directly (tests, debug).
	flagLive flowFlags = 1 << iota
	// flagGotData: the flow's first data packet has been seen.
	flagGotData
	// flagCounted: the flow is included in the tracker's active-flow
	// aggregates.
	flagCounted
	// flagAwaitingData: the upstream RTT half is armed.
	flagAwaitingData
	// flagTwoWay: two-way samples are feeding the epoch.
	flagTwoWay
)

func (f *flowInfo) has(b flowFlags) bool { return f.flags&b != 0 }

func (f *flowInfo) set(b flowFlags, on bool) {
	if on {
		f.flags |= b
	} else {
		f.flags &^= b
	}
}

// roll advances the flow's epoch counters to cover time now, possibly
// rolling several (empty) epochs at once. Once two epochs have closed
// in one call every counter and both previous-epoch copies are zero,
// so the rest of the silence is skipped in one step (skipEmpty) — a
// returning flow pays for its epoch count, not for its idle time.
func (f *flowInfo) roll(now sim.Time) {
	for closed := 0; now >= f.epochStart+f.epoch; closed++ {
		if closed == 2 && f.epoch > 0 {
			f.skipEmpty((now - f.epochStart) / f.epoch)
			return
		}
		seconds := f.epoch.Seconds()
		if seconds > 0 {
			inst := float64(f.bytes) * 8 / seconds
			f.rateEWMA = 0.875*f.rateEWMA + 0.125*inst
		}
		f.prevNewPkts = f.newPkts
		f.prevDrops = f.drops
		f.newPkts, f.drops, f.bytes = 0, 0, 0
		f.epochStart += f.epoch
		f.addEpochs(1)
		if f.protectEpochs > 0 {
			f.protectEpochs--
		}
	}
}

// skipEmpty closes k further epochs of a record whose current and
// previous epoch are already empty, with the result the loop in roll
// would reach bit for bit (roll parity): each such closing feeds the
// rate EWMA an instantaneous rate of exactly +0, so the float is k
// plain multiplies (never math.Pow, which rounds differently) that stop
// at the decay's fixed point — zero, or the few smallest denormals that
// 0.875 rounds back to themselves — and the integers are closed forms.
func (f *flowInfo) skipEmpty(k sim.Time) {
	for i := k; i > 0; i-- {
		next := 0.875 * f.rateEWMA
		if next == f.rateEWMA {
			break
		}
		f.rateEWMA = next
	}
	f.epochStart += k * f.epoch
	f.addEpochs(int64(k))
	if k < sim.Time(f.protectEpochs) {
		f.protectEpochs -= uint8(k)
	} else {
		f.protectEpochs = 0
	}
}

// addEpochs counts k more closed epochs, saturating at MaxInt32. A
// two-way epoch has no floor, so a long silence can close more than
// 2^31 at once (3.2 s at 1 ns); the count is only ever compared with
// newFlowEpochs, where a wrapped negative count would make an old flow
// new again.
func (f *flowInfo) addEpochs(k int64) {
	f.epochs = int32(min(int64(f.epochs)+k, math.MaxInt32))
}

// catchUp completes the scan-parity roll schedule through time x (an
// event time or the last scan). The rescanning tracker rolled every
// flow at every scan; the incremental tracker must replay exactly the
// crossings those rolls would have made, with the epoch values then in
// effect. Every epoch mutation is preceded by a catchUp, so between
// mutations the epoch is constant and one deferred roll is equivalent
// to the per-scan series. The rolledTo watermark makes catch-up
// monotone: without it, re-rolling an already-covered span after an
// epoch shrink could cross a boundary the old schedule never saw
// (the shrink can pull epochStart+epoch behind a point the flow was
// already rolled past), mis-bucketing that epoch's counters.
//
//taq:hotpath runs per observed packet to roll epoch counters
func (f *flowInfo) catchUp(x sim.Time) {
	if x <= f.rolledTo {
		return
	}
	f.rolledTo = x
	f.roll(x)
}

// silentFor returns how long the flow has been silent at time now.
func (f *flowInfo) silentFor(now sim.Time) sim.Time { return now - f.lastPkt }

// Census counts tracked flows per approximate state, indexed by
// FlowState. It is maintained incrementally on every transition, so
// reading it is a fixed-size copy with no allocation and no walk of
// the flow table.
type Census [numFlowStates]int

// poolEntry tracks one pool's active-flow count. cur is live; snap
// freezes the count as of the last scan barrier (see snapshotPools):
// the first mutation after a barrier saves cur into snap and stamps
// the entry, so mid-window reads keep seeing the scan-time value —
// the same snapshot semantics the rescanning implementation got by
// materializing a map each scan. refs counts tracked flows (active or
// not) keyed to the pool; the entry is unfiled when it hits zero, so a
// filed entry is exactly one with refs > 0. Entries live in the
// tracker's poolTable (flowstore.go).
//
//taq:shardowned per-pool active-count entry, owned by the tracker's pool table
type poolEntry struct {
	stamp           uint64
	key             packet.PoolID
	cur, snap, refs int32
}

// tracker owns all per-flow records and applies the approximate state
// model. All aggregate control inputs are maintained incrementally:
// observing a packet, dropping one, or scanning a due flow updates the
// counters in O(1), and the periodic scan itself touches only flows
// whose deadlines have passed (tracked by two lazy-deletion timing
// wheels) instead of rescanning the whole table.
//
//taq:shardowned all per-flow mutable state; the sharded middlebox gives each shard its own tracker
type tracker struct {
	run sim.Runner
	// store owns every flow record: a flat slot-indexed array with a
	// free list plus the FlowID→slot open-addressed index, so the
	// per-packet lookup does no Go map access (see flowstore.go).
	store flowStore
	// rec, when non-nil, receives TrackerTransition/TimeoutDetected
	// events from setState (installed via TAQ.SetRecorder).
	rec *obs.Recorder
	// stats is the owning shard's Stats, where transitions are counted.
	stats *Stats

	// census partitions the flow table by state.
	census Census
	// activeN counts flows satisfying the active predicate; singles
	// counts the active pool-less flows among them (each its own
	// "pool"), and activePoolsN the pools with at least one active
	// flow.
	activeN, singles, activePoolsN int
	// invSumFx accumulates the active flows' inverse epochs in fixed
	// point (invEpochFxShift fractional bits). Integer addition is
	// exact and order-independent, so the sum is identical no matter
	// in which order flows join and leave — the float accumulation it
	// replaces was only deterministic because every pass ran in
	// sorted order.
	invSumFx int64
	// pools holds per-pool active counts in the same flat shape as
	// the flow store (point lookups only — never iterated). Flow
	// records pin their pool's entry through poolSlot references.
	pools poolTable
	// stamp is the snapshot barrier counter for poolEntry (bumped by
	// snapshotPools).
	stamp uint64

	// actWheel files flows by the time their activity-recency window
	// (4 epochs of silence) runs out; scanWheel files them by the
	// earliest time a scan transition or expiry eviction could apply.
	// Both draw their chunks from chunks.
	actWheel, scanWheel deadlineWheel
	chunks              chunkArena
	// due is the scan's scratch list.
	due []*flowInfo
	// lastScan is when the periodic scan last ran. The rescanning
	// implementation rolled every flow's epoch counters each scan;
	// the incremental one rolls lazily, and readers that need
	// scan-fresh counters (the eviction score) catch up to this
	// point — roll is idempotent catch-up, so the result is
	// identical.
	lastScan sim.Time

	// The struct is a whole multiple of the cache line, so adjacent
	// per-shard trackers never share one (TestRecordLayout checks it;
	// pad with a blank array field if a change breaks it).
}

func newTracker(run sim.Runner, stats *Stats) *tracker {
	t := &tracker{run: run, stats: stats, stamp: 1}
	t.actWheel = newDeadlineWheel(&t.chunks, scanInterval, flowExpiry)
	t.scanWheel = newDeadlineWheel(&t.chunks, scanInterval, flowExpiry)
	return t
}

func (t *tracker) get(id packet.FlowID) *flowInfo { return t.store.lookup(id) }

func (t *tracker) getOrCreate(p *packet.Packet) *flowInfo {
	f := t.store.lookup(p.Flow)
	if f == nil {
		now := t.run.Now()
		f = t.store.alloc(p.Flow)
		f.state = StateNew
		f.synBurst = now // SYN time until the first data packet lands
		t.setEpoch(f, defaultEpoch)
		f.epochStart, f.lastPkt = now, now
		f.highSeq, f.sampleSeq, f.lastClass = -1, -1, -1
		f.poolSlot = idxEmpty
		t.census[StateNew]++
		if p.Pool != packet.PoolNone {
			f.poolSlot = t.pools.ref(p.Pool)
		}
	}
	return f
}

// evictFlow removes a long-dead flow: it is withdrawn from every
// aggregate, its wheel entries are invalidated by the generation bump in
// release, and the slot goes back to the store's free list for reuse.
func (t *tracker) evictFlow(f *flowInfo) {
	if f.has(flagCounted) {
		t.applyCount(f, false)
	}
	t.census[f.state]--
	if f.poolSlot != idxEmpty {
		t.pools.unref(f.poolSlot)
	}
	f.actDl, f.scanDl = 0, 0
	t.store.release(f)
}

// setState moves f to state s, counting the transition and emitting
// the tracker trace events. A transition into a silence state
// additionally emits TimeoutDetected — the middlebox concluding the
// sender is waiting out an RTO.
func (t *tracker) setState(f *flowInfo, s FlowState) {
	if f.state == s {
		return
	}
	t.stats.Transitions[s]++
	if t.rec != nil {
		now, pool := t.run.Now(), t.poolOf(f)
		t.rec.TrackerTransition(now, f.id, pool, int8(f.state), int8(s))
		if s == StateTimeoutSilence || s == StateExtendedSilence {
			t.rec.TimeoutDetected(now, f.id, pool, int8(f.state), int8(s))
		}
	}
	t.census[f.state]--
	t.census[s]++
	f.state = s
}

// observe processes an arriving packet (before any drop decision) and
// returns the flow record plus whether the middlebox classifies the
// packet as a retransmission. The classification is observational —
// a data sequence at or below the highest seen — exactly what a real
// middlebox can infer.
func (t *tracker) observe(p *packet.Packet) (f *flowInfo, rtx bool) {
	now := t.run.Now()
	f = t.getOrCreate(p)
	silence := f.silentFor(now)
	if silence > f.epoch {
		f.lastSilence = silence
	}
	f.catchUp(now)

	switch p.Kind {
	case packet.Syn:
		if !f.has(flagGotData) {
			// synBurst still means "SYN time" before the first data
			// packet; once data state exists the burst meaning owns
			// the field and the SYN time is never read again.
			f.synBurst = now
		}
		if f.state != StateNew && f.has(flagGotData) {
			// SYN retry of a flow we have data state for: ignore.
			break
		}
		t.setState(f, StateNew)
	case packet.Data:
		rtx = f.has(flagGotData) && p.Seq <= int(f.highSeq)
		if !f.has(flagGotData) {
			// First data packet: seed the epoch estimate from the
			// SYN→data gap (§3.3's one-way estimation approach).
			f.set(flagGotData, true)
			if d := now - f.synBurst; d > 10*sim.Millisecond && d < 2*defaultEpoch*10 {
				t.setEpoch(f, d)
			}
			f.epochStart = now
			f.synBurst = now // burst-start meaning from here on
		} else if silence > f.epoch/2 && !f.has(flagTwoWay) &&
			(f.state == StateNormal || f.state == StateSlowStart) {
			// Burst start after a gap: TCP sends a window per RTT, so
			// the burst-to-burst interval tracks the epoch. Refine
			// with a weighted moving average (§3.3).
			interval := now - f.synBurst
			if interval > f.epoch/2 && interval < 4*f.epoch {
				t.setEpoch(f, (7*f.epoch+interval)/8)
			}
			f.synBurst = now
		}
		if p.Seq > int(f.highSeq) {
			f.highSeq = int32(p.Seq)
		}
		if !rtx {
			f.newPkts++
		}
		f.bytes = uint32(min(uint64(f.bytes)+uint64(p.Size), math.MaxUint32))
		t.transition(f, rtx, silence)
	}
	f.lastPkt = now
	t.reconcile(f)
	return f, rtx
}

// transition applies the Fig 7 state machine for an observed data
// packet. silence is how long the flow had been quiet before this
// packet.
func (t *tracker) transition(f *flowInfo, rtx bool, silence sim.Time) {
	switch f.state {
	case StateNew:
		t.setState(f, StateSlowStart)
	case StateTimeoutSilence, StateExtendedSilence:
		if rtx {
			t.setState(f, StateTimeoutRecovery)
		} else {
			// New data after silence: sender restarted cleanly.
			t.setState(f, StateSlowStart)
			f.outstandingDrops = 0
			f.protectEpochs = 2
		}
	case StateTimeoutRecovery:
		if rtx {
			if f.outstandingDrops > 0 {
				f.outstandingDrops--
			}
		} else {
			// New data past the loss point: recovered to slow start.
			t.setState(f, StateSlowStart)
			f.outstandingDrops = 0
			f.lastSilence = 0
			f.protectEpochs = 2
		}
	case StateLossRecovery:
		if rtx {
			if f.outstandingDrops > 0 {
				f.outstandingDrops--
			}
		} else if f.outstandingDrops == 0 {
			t.setState(f, StateNormal)
			f.lastSilence = 0
			f.protectEpochs = 2
		}
	case StateSlowStart, StateNormal, StateIdleSilence:
		switch {
		case rtx:
			// A retransmission we did not cause: external loss or a
			// timeout we missed.
			t.setState(f, StateLossRecovery)
		case f.state == StateIdleSilence:
			t.setState(f, StateNormal)
		case f.state == StateSlowStart && f.epochs >= 1 &&
			f.prevNewPkts > 0 && f.newPkts <= f.prevNewPkts+1:
			// Growth flattened out: slow start is over.
			t.setState(f, StateNormal)
		}
	}
}

// observeForwarded is called when a data packet is actually served
// onto the link: it arms the downstream RTT sample, and closes the
// upstream half if the ack that released this data was seen.
func (t *tracker) observeForwarded(p *packet.Packet) {
	f := t.get(p.Flow)
	if f == nil || p.Kind != packet.Data {
		return
	}
	now := t.run.Now()
	if f.has(flagAwaitingData) && !p.Retransmit {
		if up := now - f.lastAckAt; up > 0 && up < 4*f.epoch {
			f.upRTT = ewmaTime(f.upRTT, up)
		}
		f.set(flagAwaitingData, false)
	}
	if f.sampleSeq < 0 {
		f.sampleSeq = int32(p.Seq)
		f.sampleAt = now
	}
}

// observeReverse is called for ack-path packets in two-way mode: it
// closes downstream RTT samples and feeds the epoch estimate.
func (t *tracker) observeReverse(p *packet.Packet) {
	f := t.get(p.Flow)
	if f == nil || p.Kind != packet.Ack {
		return
	}
	now := t.run.Now()
	// About to move the epoch: first catch the counters up to the last
	// scan with the old epoch. The full-table rescan rolled every flow
	// at every scan, so its epoch-boundary crossings up to that point
	// used the pre-ack estimate; rolling lazily with the new epoch
	// would land the boundaries elsewhere.
	f.catchUp(t.lastScan)
	if f.sampleSeq >= 0 && p.CumAck > int(f.sampleSeq) {
		if down := now - f.sampleAt; down > 0 {
			f.downRTT = ewmaTime(f.downRTT, down)
		}
		f.sampleSeq = -1
	}
	f.lastAckAt = now
	f.set(flagAwaitingData, true)
	if f.downRTT > 0 && f.upRTT > 0 {
		t.setEpoch(f, f.downRTT+f.upRTT)
		f.set(flagTwoWay, true)
	}
	// The epoch may have moved without a forward packet: deadlines
	// derived from it must follow.
	t.reconcile(f)
}

func ewmaTime(old, sample sim.Time) sim.Time {
	if old == 0 {
		return sample
	}
	return (7*old + sample) / 8
}

// recordDrop updates flow state after TAQ drops one of its packets
// (§4.1: predicting the consequence of the drop).
func (t *tracker) recordDrop(p *packet.Packet, rtx bool) {
	f := t.get(p.Flow)
	if f == nil {
		return
	}
	now := t.run.Now()
	// Catch the flow up to the last scan before counting, so the drop
	// lands in the same epoch bucket the full-table rescan would have
	// used (the rescan rolled every flow each scan; roll is idempotent,
	// so a flow already rolled past the scan is untouched).
	f.catchUp(t.lastScan)
	f.drops++
	f.outstandingDrops++
	switch {
	case p.Kind == packet.Syn:
		// The sender will retry the SYN after its handshake timer.
		t.setState(f, StateNew)
	case rtx:
		// Dropping a retransmission forces an RTO (§4.1): the flow
		// enters a timeout silence, possibly a repetitive one.
		if f.state == StateTimeoutRecovery || f.state == StateExtendedSilence {
			t.setState(f, StateExtendedSilence)
		} else {
			t.setState(f, StateTimeoutSilence)
		}
		f.silenceStart = now
	default:
		if f.state == StateNormal || f.state == StateSlowStart || f.state == StateIdleSilence {
			t.setState(f, StateLossRecovery)
		}
	}
	// The drop may have changed the state, silenceStart, or the
	// outstanding-drop count — all scan-deadline inputs.
	t.reconcile(f)
}

// timeoutish reports whether s is one of the timeout states whose
// flows count as active regardless of silence — they deserve their
// fair share when they return (§3.3).
func timeoutish(s FlowState) bool {
	return s == StateTimeoutSilence || s == StateExtendedSilence ||
		s == StateTimeoutRecovery
}

// invEpochFxShift is the fixed-point precision of invSumFx: terms are
// (1/epoch seconds) scaled by 2^20, giving ~6 decimal digits below the
// point while a million 1 kHz flows still sum far below int64 range.
const invEpochFxShift = 20

func invTermFor(epoch sim.Time) int64 {
	if epoch <= 0 {
		return 0
	}
	return (int64(sim.Second) << invEpochFxShift) / int64(epoch)
}

// setEpoch is the one writer of f.epoch. While f is counted its term
// in invSumFx moves with the epoch, so that term is always
// invTermFor(f.epoch) and the record need not store it.
func (t *tracker) setEpoch(f *flowInfo, epoch sim.Time) {
	if epoch == f.epoch {
		return
	}
	if f.has(flagCounted) {
		t.invSumFx += invTermFor(epoch) - invTermFor(f.epoch)
	}
	f.epoch = epoch
}

// wantCounted is the active-flow predicate: seen within the last four
// epochs, or parked in a timeout state.
func (t *tracker) wantCounted(f *flowInfo, now sim.Time) bool {
	return now-f.lastPkt <= 4*f.epoch || timeoutish(f.state)
}

// applyCount inserts or withdraws f from the active aggregates:
// activeN, the inverse-epoch sum, and the pool counts (pool-less flows
// are their own singleton pools).
func (t *tracker) applyCount(f *flowInfo, on bool) {
	if on == f.has(flagCounted) {
		return
	}
	f.set(flagCounted, on)
	if on {
		t.activeN++
		t.invSumFx += invTermFor(f.epoch)
	} else {
		t.activeN--
		t.invSumFx -= invTermFor(f.epoch)
	}
	if f.poolSlot == idxEmpty {
		if on {
			t.singles++
		} else {
			t.singles--
		}
		return
	}
	// poolSlot is pinned (refs > 0) for as long as the flow is
	// tracked, so this is a direct array access with no probe.
	e := &t.pools.recs[f.poolSlot]
	if e.stamp != t.stamp {
		e.snap = e.cur
		e.stamp = t.stamp
	}
	if on {
		if e.cur == 0 {
			t.activePoolsN++
		}
		e.cur++
	} else {
		e.cur--
		if e.cur == 0 {
			t.activePoolsN--
		}
	}
}

// scanDeadlineOf returns the earliest time at which the periodic scan
// could change f: the moment a silence-transition condition can first
// hold (all are strict comparisons, so the flow is due once the
// deadline is strictly in the past), capped by expiry eviction.
func (t *tracker) scanDeadlineOf(f *flowInfo) sim.Time {
	dl := f.lastPkt + flowExpiry
	switch f.state {
	case StateLossRecovery, StateTimeoutRecovery:
		var d sim.Time
		if f.outstandingDrops > 0 {
			d = f.lastPkt + f.epoch*3/2
		} else {
			d = f.lastPkt + f.epoch*3
		}
		if d < dl {
			dl = d
		}
	case StateTimeoutSilence:
		if d := f.silenceStart + 3*f.epoch; d < dl {
			dl = d
		}
	case StateNormal, StateSlowStart:
		if d := f.lastPkt + f.epoch*3/2; d < dl {
			dl = d
		}
	}
	return dl
}

// reconcile brings f's aggregate membership and wheel deadlines in line
// with its current fields. It must run after any mutation of a
// deadline input (lastPkt, epoch, state, outstandingDrops,
// silenceStart): observe, observeReverse, recordDrop, and each scanned
// flow end with it. Pushes are elided unless they move the flow's
// earliest live entry, so repeated reconciles are cheap and the wheels
// stay near one live entry per flow.
func (t *tracker) reconcile(f *flowInfo) {
	now := t.run.Now()
	if want := t.wantCounted(f, now); want != f.has(flagCounted) {
		t.applyCount(f, want)
	}
	if f.has(flagCounted) && !timeoutish(f.state) {
		dl := f.lastPkt + 4*f.epoch
		if f.actDl == 0 || dl < f.actDl {
			t.actWheel.push(f.handle(), dl)
			f.actDl = dl
		}
	}
	dl := t.scanDeadlineOf(f)
	if f.scanDl == 0 || dl < f.scanDl {
		t.scanWheel.push(f.handle(), dl)
		f.scanDl = dl
	}
}

// advanceActivity settles every activity deadline that has passed:
// flows whose recency window ran out are withdrawn from the active
// aggregates. Readers call it first, so active counts are evaluated
// at read time exactly like the predicate-per-flow rescan was.
// Timeout-state flows stay counted regardless of silence; their
// entries are simply discarded (reconcile re-arms one when the state
// machine moves them on).
//
// A wheel entry holds no deadline; the record's mirror decides. An
// entry whose record was recycled, or whose mirror is disarmed, is
// stale. One whose mirror has passed is due — the flow's live entry
// lies on the walked slots too, and the first of the two to be visited
// disarms the mirror, so each due flow is handled once. One whose
// mirror has not passed goes back to drain, which re-files it only if
// the mirror maps to the slot being walked.
func (t *tracker) advanceActivity(now sim.Time) {
	// drain only calls visit, so the closure cell stays on the stack
	// (TestHotpathRootsZeroAlloc holds ActiveFlows at zero).
	//taq:allow noalloc non-escaping closure, stack-allocated
	t.actWheel.drain(now, func(e wheelEntry) sim.Time {
		f := t.store.at(e.slot)
		if f.gen != e.gen || f.actDl == 0 {
			return 0 // evicted since the push, or a disarmed mirror
		}
		if f.actDl >= now {
			return f.actDl
		}
		f.actDl = 0
		if !f.has(flagCounted) || timeoutish(f.state) {
			return 0
		}
		if actual := f.lastPkt + 4*f.epoch; actual < now {
			t.applyCount(f, false)
		} else {
			// The deadline moved later after this entry was pushed
			// (new packets, or the epoch grew): re-arm at the live
			// deadline.
			t.actWheel.push(f.handle(), actual)
			f.actDl = actual
		}
		return 0
	})
}

// scan performs the periodic silence pass: flows that have gone quiet
// move into the silence states; long-dead flows are evicted. Only
// flows whose scan deadline has passed are touched; the transition
// logic itself is unchanged. Due flows are processed in ascending id
// order — the order the full-table rescan used — so trace events
// within a scan are emitted identically. The scan wheel's entries are
// decided from scanDl the way advanceActivity decides from actDl, and
// the first visit disarms the mirror, so no flow is due twice.
func (t *tracker) scan() {
	now := t.run.Now()
	// Index doubling is hoisted to scan cadence so the rehash never
	// runs under a packet (put keeps only an emergency threshold).
	t.store.idx.maybeGrow()
	t.pools.idx.maybeGrow()
	t.advanceActivity(now)
	t.due = t.due[:0]
	t.scanWheel.drain(now, func(e wheelEntry) sim.Time {
		f := t.store.at(e.slot)
		if f.gen != e.gen || f.scanDl == 0 {
			return 0
		}
		if f.scanDl >= now {
			return f.scanDl
		}
		f.scanDl = 0
		t.due = append(t.due, f)
		return 0
	})
	slices.SortFunc(t.due, func(a, b *flowInfo) int {
		return int(a.id) - int(b.id)
	})
	for _, f := range t.due {
		t.scanFlow(f, now)
	}
	t.lastScan = now
}

// scanFlow applies the scan logic to one due flow. A flow's scanDl is
// never later than its true scan deadline, so a due flow may still
// find every condition below false; reconcile then re-arms the true
// deadline.
func (t *tracker) scanFlow(f *flowInfo, now sim.Time) {
	if f.silentFor(now) > flowExpiry {
		t.evictFlow(f)
		return
	}
	f.catchUp(now)
	silent := f.silentFor(now)
	switch f.state {
	case StateLossRecovery, StateTimeoutRecovery:
		if silent > f.epoch*3/2 && f.outstandingDrops > 0 {
			// Expected retransmissions never came: the sender is
			// waiting out an RTO.
			if f.state == StateTimeoutRecovery {
				t.setState(f, StateExtendedSilence)
			} else {
				t.setState(f, StateTimeoutSilence)
			}
			f.silenceStart = f.lastPkt
		} else if silent > f.epoch*3 {
			t.setState(f, StateIdleSilence)
		}
	case StateTimeoutSilence:
		if now-f.silenceStart > 3*f.epoch {
			t.setState(f, StateExtendedSilence)
		}
	case StateNormal, StateSlowStart:
		if silent > f.epoch*3/2 {
			if f.outstandingDrops > 0 {
				t.setState(f, StateTimeoutSilence)
				f.silenceStart = f.lastPkt
			} else {
				t.setState(f, StateIdleSilence)
			}
		}
	}
	t.reconcile(f)
}

// activeStats returns the number of active flows (seen within the
// last few epochs or stuck in timeout states) — the N of the
// fair-share computation C/N — together with the sum of their inverse
// epoch estimates, which weights the proportional fairness model. Both
// are O(1) reads of maintained counters (after settling any expired
// activity deadlines).
func (t *tracker) activeStats() (n int, invEpochSum float64) {
	t.advanceActivity(t.run.Now())
	return t.activeN, float64(t.invSumFx) / (1 << invEpochFxShift)
}

// activeFlows counts flows seen within the last few epochs.
func (t *tracker) activeFlows() int {
	t.advanceActivity(t.run.Now())
	return t.activeN
}

// snapshotPools returns the number of active pools (pool-less flows
// count as one pool each) and starts a new pool-count snapshot window:
// until the next call, poolCount answers with the counts as of this
// barrier.
func (t *tracker) snapshotPools() (pools int) {
	t.advanceActivity(t.run.Now())
	pools = t.activePoolsN + t.singles
	t.stamp++
	return pools
}

// poolOf returns f's pool: the key of the entry its poolSlot pins, or
// PoolNone.
func (t *tracker) poolOf(f *flowInfo) packet.PoolID {
	if f.poolSlot == idxEmpty {
		return packet.PoolNone
	}
	return t.pools.recs[f.poolSlot].key
}

// poolCount returns the active flow count of f's pool as of the last
// snapshotPools barrier (0 for pool-less flows). The entry is the one
// f pins, so there is no index probe.
func (t *tracker) poolCount(f *flowInfo) int {
	if f.poolSlot == idxEmpty {
		return 0
	}
	e := &t.pools.recs[f.poolSlot]
	if e.stamp == t.stamp {
		return int(e.snap)
	}
	return int(e.cur)
}

// stateCensus returns the number of tracked flows in each state — a
// copy of the maintained census array, allocation-free.
func (t *tracker) stateCensus() Census { return t.census }
