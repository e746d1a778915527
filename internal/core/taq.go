package core

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
)

// TAQ is one shard of the Timeout Aware Queuing middlebox: a complete
// tracker, flow store, class queues and scheduler for the flows that
// hash to it. It implements queue.Discipline; Sharded builds the
// shards, routes packets to them and is what every caller constructs.
//
// Start arms the periodic silence scan and loss-window bookkeeping;
// Stop cancels them.
type TAQ struct {
	queue.DropHook
	cfg Config
	run sim.Runner

	tracker *tracker
	q       classQueues

	// agg holds the loss window and the admission controller — the
	// only state shared between shards (see aggregator.go).
	agg *Aggregator

	// newFlowCap bounds the NewFlow queue in packets, max(2,
	// Capacity/4) (§4.2: "we explicitly limit the NewQueue capacity").
	newFlowCap int

	// Scheduler accounting for the Level-1 recovery share cap and the
	// Level-2 round-robin cursor. The serve counters are windowed —
	// rolled every lossWindow like the loss monitor — so the cap
	// compares recent history: with run-lifetime counters, a recovery
	// burst after a long quiet period would hold strict priority until
	// it consumed recoveryShare of the whole run's services, starving
	// Levels 2–3 far beyond the intended share. winOpened is when the
	// shard's serve window opened, on the shard's own clock.
	winOpened                 sim.Time
	winServed, winServedRec   uint64
	prevServed, prevServedRec uint64
	rrCursor                  int

	// rec, when non-nil, receives class-specific trace events (drops
	// with victim class, class changes, tracker and admission events).
	rec *obs.Recorder
	// mx, when non-nil, records the per-class sojourn histogram
	// (installed via SetMetrics).
	mx *Metrics

	// Cached fair share (bits/second per flow), refreshed by the scan;
	// invEpochSum weights the proportional fairness model; poolShare
	// backs the pool fairness model (§4.3 — per-pool counts live in
	// the tracker's snapshot counters).
	fairShare   float64
	invEpochSum float64
	poolShare   float64

	scanTimer *sim.Timer
	stopped   bool

	// victimScoreFn is t.victimScore bound once in newShard: evict
	// passes it to BestVictim on every overflow, and a method value
	// taken there would allocate a closure per eviction.
	victimScoreFn func(packet.FlowID, int32) float64

	// Stats accumulates this shard's counters, the admission rulings on
	// the SYNs it enqueued included; Sharded.Stats sums the shards.
	Stats Stats
}

// newShard constructs one shard attached to the middlebox's shared
// aggregator.
func newShard(run sim.Runner, cfg Config, agg *Aggregator) *TAQ {
	t := &TAQ{cfg: cfg, run: run, newFlowCap: max(2, cfg.Capacity/4)}
	t.tracker = newTracker(run, &t.Stats)
	t.agg = agg
	t.winOpened = run.Now()
	t.fairShare = float64(cfg.Rate)
	t.victimScoreFn = t.victimScore
	// Occupancy picks victims in the four classes evict searches by
	// flow; Recovery sheds by silence alone and keeps no table.
	for c := ClassNewFlow; int(c) < numClasses; c++ {
		t.q[c].occ = make(map[packet.FlowID]occEntry)
	}
	return t
}

// SetRecorder installs a trace recorder on the shard and its tracker;
// the admission rulings on this shard's SYNs are recorded here too. A
// nil recorder (the default) disables tracing; every emission site
// guards on it, so the disabled path costs one branch and zero
// allocations.
func (t *TAQ) SetRecorder(rec *obs.Recorder) {
	t.rec = rec
	t.tracker.rec = rec
}

// Start schedules the periodic scan. Safe to call once.
func (t *TAQ) Start() {
	if t.scanTimer != nil {
		return
	}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		t.scan()
		// Re-arm in place: the timer just fired, so Reschedule reuses
		// its allocation instead of minting a new one every scan.
		t.scanTimer = t.run.Reschedule(t.scanTimer, scanInterval, tick)
	}
	t.scanTimer = t.run.Schedule(scanInterval, tick)
}

// Stop cancels the periodic scan.
func (t *TAQ) Stop() {
	t.stopped = true
	t.scanTimer.Cancel()
}

// scan runs silence detection, refreshes the cached fair share, rolls
// the loss window, and expires stale pools.
func (t *TAQ) scan() {
	t.tracker.scan()
	n, invSum := t.tracker.activeStats()
	if n < 1 {
		n = 1
	}
	t.fairShare = float64(t.cfg.Rate) / float64(n)
	t.invEpochSum = invSum
	if t.cfg.PoolFairShare {
		pools := t.tracker.snapshotPools()
		if pools < 1 {
			pools = 1
		}
		t.poolShare = float64(t.cfg.Rate) / float64(pools)
	}
	now := t.run.Now()
	t.agg.maybeRoll(now)
	if now-t.winOpened >= lossWindow {
		// Roll the serve window on this shard's clock, at the cadence
		// of the loss window, so the Level-1 recovery cap compares the
		// same span of recent history as the loss monitor.
		t.winOpened = now
		t.prevServed, t.prevServedRec = t.winServed, t.winServedRec
		t.winServed, t.winServedRec = 0, 0
	}
	if t.cfg.AdmissionControl {
		t.agg.expireAdmission(now)
	}
}

// LossRate returns the measured drop fraction over roughly the last
// two loss windows.
//
//taq:hotpath O(1) control-loop gauge, sampled at scan cadence
func (t *TAQ) LossRate() float64 { return t.agg.lossRate() }

// LossEWMA returns the smoothed loss rate, updated once per loss
// window — the telemetry-facing companion of LossRate.
func (t *TAQ) LossEWMA() float64 { return t.agg.lossEWMAValue() }

// FairShare returns the cached per-flow fair share in bits/second.
//
//taq:hotpath O(1) control-loop gauge, sampled at scan cadence
func (t *TAQ) FairShare() float64 { return t.fairShare }

// ActiveFlows returns the tracker's current active flow count.
//
//taq:hotpath O(1) control-loop gauge, sampled at scan cadence
func (t *TAQ) ActiveFlows() int { return t.tracker.activeFlows() }

// RecoveringFlows returns the number of tracked flows currently in a
// loss-recovery or timeout state — the population the paper's fairness
// argument protects. O(1): four reads of the maintained census.
//
//taq:hotpath O(1) control-loop gauge, sampled at scan cadence
func (t *TAQ) RecoveringFlows() int {
	c := &t.tracker.census
	return c[StateLossRecovery] + c[StateTimeoutSilence] +
		c[StateTimeoutRecovery] + c[StateExtendedSilence]
}

// StateCensus returns the number of tracked flows per approximate
// state — the middlebox-side view used in the flow-evolution analysis.
// The census is maintained on every transition, so this is a fixed-size
// copy with no allocation.
//
//taq:hotpath O(1) control-loop gauge, sampled at scan cadence
func (t *TAQ) StateCensus() Census { return t.tracker.stateCensus() }

// WaitingPools returns the number of flow pools queued for admission.
func (t *TAQ) WaitingPools() int { return t.agg.waitingPools() }

// ExpectedWait estimates how long the given pool will wait before
// admission (0 for admitted/unknown pools) — the §4.3 user-feedback
// hook ("maintaining a visible queue of requests with expected wait
// times ... for each browsing request").
func (t *TAQ) ExpectedWait(pool packet.PoolID) sim.Time {
	return t.agg.expectedWait(t.run.Now(), pool)
}

// FlowStateOf exposes the tracked state of a flow (testing/metrics).
// It is exactly one probe of the open-addressed flow index plus a
// record read, and doubles as the exported surface the allocation
// harness uses to pin the lookup path.
//
//taq:hotpath per-flow state probe over the open-addressed index
func (t *TAQ) FlowStateOf(id packet.FlowID) (FlowState, bool) {
	f := t.tracker.get(id)
	if f == nil {
		return 0, false
	}
	return f.state, true
}

// victimScore ranks eviction candidates for BestVictim: the flow's
// catch-up-corrected rate EWMA, so among equally occupying flows the
// fastest sender loses first. The full-table rescan rolled every
// flow's epoch counters each scan; the incremental tracker rolls
// lazily, so catch the flow up to the last scan first to read the
// rate the rescan would have read. slot is the record handle the
// class queue kept; the index is probed only when it went stale.
func (t *TAQ) victimScore(fl packet.FlowID, slot int32) float64 {
	if f := t.tracker.store.resolve(fl, slot); f != nil {
		f.catchUp(t.tracker.lastScan)
		return f.rateEWMA
	}
	return 0
}

// flowFairShare returns the flow's fair share in bits/second under
// the configured fairness model.
func (t *TAQ) flowFairShare(f *flowInfo) float64 {
	if t.cfg.PoolFairShare && t.poolShare > 0 {
		if f.poolSlot == idxEmpty {
			return t.poolShare
		}
		n := t.tracker.poolCount(f)
		if n < 1 {
			n = 1
		}
		return t.poolShare / float64(n)
	}
	if t.cfg.Fairness == Proportional && t.invEpochSum > 0 && f.epoch > 0 {
		return float64(t.cfg.Rate) * (1 / f.epoch.Seconds()) / t.invEpochSum
	}
	return t.fairShare
}

// classify assigns an arriving packet to one of the five queues
// (§4.2), given its flow record and retransmission status.
func (t *TAQ) classify(p *packet.Packet, f *flowInfo, rtx bool) Class {
	switch {
	case rtx && !t.cfg.NoRecoveryPriority:
		return ClassRecovery
	case p.Kind == packet.Syn:
		return ClassNewFlow
	case (int(f.epochs) < newFlowEpochs || int(f.highSeq) < newFlowSegs) &&
		(f.state == StateNew || f.state == StateSlowStart):
		return ClassNewFlow
	case int(f.drops)+int(f.prevDrops) >= overPenaltyDrops:
		return ClassOverPenalized
	case !t.cfg.NoRecoveryProtection &&
		(f.state == StateLossRecovery || f.state == StateTimeoutRecovery ||
			f.protectEpochs > 0):
		// §4.1: flows with recent losses get higher priority for the
		// packets that follow, to prevent (repetitive) timeouts — a
		// flow crawling out of recovery must not lose its first new
		// packets.
		return ClassOverPenalized
	case f.rateEWMA <= t.flowFairShare(f):
		return ClassBelowFair
	default:
		return ClassAboveFair
	}
}

// Enqueue implements queue.Discipline.
//
//taq:hotpath TAQ per-packet classify/admit/enqueue path (§4)
func (t *TAQ) Enqueue(p *packet.Packet) {
	t.Stats.Arrivals++
	t.agg.noteArrival()
	f, rtx := t.tracker.observe(p)

	// Admission control gates SYNs of un-admitted pools (§4.3); data
	// of un-admitted pools (races around expiry) is dropped too. The
	// gate lives in the aggregator: pool admission is global across
	// shards (//taq:crossshard). The aggregator only decides; this shard
	// counts and records the ruling.
	if t.cfg.AdmissionControl && p.Pool != packet.PoolNone {
		switch p.Kind {
		case packet.Syn:
			now := t.run.Now()
			if r, waited := t.agg.allowSyn(now, p.Pool, t.LossRate()); r != ruleNone {
				t.noteRuling(now, p.Pool, r, waited)
				if r == ruleBlocked {
					t.dropPolicy(p, ClassNewFlow, false)
					return
				}
			}
		case packet.Data:
			if !t.agg.poolAdmitted(t.run.Now(), p.Pool) {
				t.dropPolicy(p, ClassBelowFair, rtx)
				return
			}
		}
	}

	class := t.classify(p, f, rtx)
	if t.rec != nil && int8(class) != f.lastClass {
		t.rec.ClassChange(t.run.Now(), p, f.lastClass, int8(class))
	}
	f.lastClass = int8(class)
	q := &t.q[class]
	switch class {
	case ClassRecovery:
		// Keyed by silence: longest served first, shortest shed first.
		q.Push(p, f.slot, f.lastSilence)
	case ClassNewFlow:
		if q.Len() >= t.newFlowCap {
			// The NewFlow cap curtails the admission rate of new
			// connections even without explicit admission control.
			t.dropPacket(p, ClassNewFlow, false)
			return
		}
		fallthrough
	default:
		q.Push(p, f.slot, 0)
	}

	// Enforce the global buffer budget by evicting from the least
	// valuable class.
	for t.q.totalLen() > t.cfg.Capacity {
		victim, vclass := t.evict()
		if victim == nil {
			break
		}
		t.dropPacket(victim, vclass, vclass == ClassRecovery)
	}
}

// level2 lists the equal-priority middle queues in round-robin order.
var level2 = [...]Class{ClassNewFlow, ClassOverPenalized, ClassBelowFair}

// evict selects a drop victim when the buffer overflows. Above-fair
// packets go first; otherwise the victim is the newest packet of the
// single flow occupying the most buffer across the Level-2 queues —
// per-flow drop control approximating Fair Queuing (§3.2) — so a
// 1-packet flow in danger of a timeout never loses to a bursty one.
// Recovery packets are shed only as a last resort (shortest silence
// first).
func (t *TAQ) evict() (*packet.Packet, Class) {
	if !t.cfg.NoOccupancyDrops {
		score := t.victimScoreFn
		if t.q[ClassAboveFair].Len() > 0 {
			fl, _, _, _ := t.q[ClassAboveFair].BestVictim(score)
			return t.q[ClassAboveFair].PopFlow(fl), ClassAboveFair
		}
		var (
			bestClass Class
			bestFlow  packet.FlowID
			bestOcc   int
			bestScore float64
			found     bool
		)
		for _, c := range [...]Class{ClassBelowFair, ClassOverPenalized, ClassNewFlow} {
			fl, occ, s, ok := t.q[c].BestVictim(score)
			if !ok {
				continue
			}
			if !found || occ > bestOcc || (occ == bestOcc && s > bestScore) {
				bestClass, bestFlow, bestOcc, bestScore, found = c, fl, occ, s, true
			}
		}
		if found {
			return t.q[bestClass].PopFlow(bestFlow), bestClass
		}
	}
	// Plain within-class tail drop: the occupancy-drop ablation, and
	// the last resort once only Recovery holds packets.
	for _, c := range [...]Class{ClassAboveFair, ClassBelowFair, ClassNewFlow, ClassOverPenalized, ClassRecovery} {
		if t.q[c].Len() > 0 {
			return t.q[c].PopNewest(), c
		}
	}
	return nil, ClassAboveFair
}

// noteRuling counts an admission ruling on this shard's SYN and traces
// it.
func (t *TAQ) noteRuling(now sim.Time, pool packet.PoolID, r ruling, waited bool) {
	switch r {
	case ruleBlocked:
		t.Stats.SynsBlocked++
	case ruleForced:
		t.Stats.PoolsForced++
	}
	if r != ruleBlocked {
		t.Stats.PoolsAdmitted++
		if waited {
			t.Stats.PoolsWaited++
		}
	}
	t.rec.AdmissionDecision(now, pool, uint8(r))
}

// dropPacket records a congestion drop: it feeds the loss window that
// LossRate (and through it, admission control) reads.
func (t *TAQ) dropPacket(p *packet.Packet, class Class, rtx bool) {
	t.agg.noteDrop()
	t.recordDrop(p, class, rtx)
}

// dropPolicy records an admission-policy drop — a blocked SYN or data
// of an un-admitted pool. The sender loses the packet exactly like a
// congestion drop (tracker prediction, trace event, and drop hook all
// fire), but the loss window must not see it: admission control's own
// drops would otherwise inflate the LossRate that gates allowSyn, and
// a storm of un-admitted pools could hold admission shut at low real
// congestion until the Twait pacer drained the queue one pool at a
// time. The packet is removed from the window's arrival count too, so
// blocked storms neither inflate nor dilute the congestion signal.
func (t *TAQ) dropPolicy(p *packet.Packet, class Class, rtx bool) {
	t.Stats.PolicyDrops++
	t.agg.uncountArrival()
	t.recordDrop(p, class, rtx)
}

// recordDrop is the shared tail of both drop paths: counters, trace
// event, tracker state prediction, and the drop hook.
func (t *TAQ) recordDrop(p *packet.Packet, class Class, rtx bool) {
	t.Stats.Drops++
	t.Stats.DropsByClass[class]++
	if rtx {
		t.Stats.RtxDrops++
	}
	if t.rec != nil {
		t.rec.Drop(t.run.Now(), p, int8(class), rtx)
	}
	t.tracker.recordDrop(p, rtx)
	t.Drop(p)
}

// Dequeue implements queue.Discipline: the three-level hierarchical
// scheduler of §4.2.
//
//taq:hotpath TAQ per-packet scheduling path (§4.2)
func (t *TAQ) Dequeue() *packet.Packet {
	// Level 1: Recovery — strict priority, but rate-capped so
	// retransmissions cannot monopolize the link.
	if t.q[ClassRecovery].Len() > 0 &&
		float64(t.winServedRec+t.prevServedRec) <
			recoveryShare*float64(t.winServed+t.prevServed+1) {
		return t.serve(t.q[ClassRecovery].Pop(), ClassRecovery)
	}
	// Level 2: NewFlow, OverPenalized, BelowFairShare at equal
	// priority, served round-robin so none starves (the NewFlow queue
	// is already capacity-limited at enqueue).
	for i := 0; i < len(level2); i++ {
		c := level2[(t.rrCursor+i)%len(level2)]
		if t.q[c].Len() > 0 {
			t.rrCursor = (t.rrCursor + i + 1) % len(level2)
			return t.serve(t.q[c].Pop(), c)
		}
	}
	// Level 3: AboveFairShare. Then work conservation: if only
	// recovery packets remain, serve them even past the share cap
	// rather than idling the link.
	for _, c := range [...]Class{ClassAboveFair, ClassRecovery} {
		if t.q[c].Len() > 0 {
			return t.serve(t.q[c].Pop(), c)
		}
	}
	return nil
}

func (t *TAQ) serve(p *packet.Packet, class Class) *packet.Packet {
	t.winServed++
	if class == ClassRecovery {
		t.winServedRec++
	}
	t.Stats.Served++
	t.Stats.ServedByClass[class]++
	if t.mx != nil {
		// Guarded so the sojourn arithmetic itself is skipped when
		// metrics are off, per the nil-hook convention.
		t.mx.observeServe(class, t.run.Now()-p.Enqueued)
	}
	t.tracker.observeForwarded(p)
	return p
}

// ObserveReverse feeds the middlebox an ack-path packet when it is
// deployed where it sees two-way traffic (§3.3's conventional mode).
// The packet is only observed, never queued; the resulting downstream
// and upstream RTT halves replace the one-way epoch heuristics.
//
//taq:hotpath runs per ACK in two-way deployments (§3.3)
func (t *TAQ) ObserveReverse(p *packet.Packet) { t.tracker.observeReverse(p) }

// FlowEpoch exposes a flow's current epoch (RTT) estimate.
func (t *TAQ) FlowEpoch(id packet.FlowID) (sim.Time, bool) {
	f := t.tracker.get(id)
	if f == nil {
		return 0, false
	}
	return f.epoch, true
}

// Len implements queue.Discipline.
func (t *TAQ) Len() int { return t.q.totalLen() }

// Bytes implements queue.Discipline.
func (t *TAQ) Bytes() int { return t.q.totalBytes() }

// QueueLen returns the length of one class queue (instrumentation).
func (t *TAQ) QueueLen(c Class) int { return t.q[c].Len() }

var _ queue.Discipline = (*TAQ)(nil)
