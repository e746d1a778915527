package core

import (
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig(600*link.Kbps, 50)
	return cfg
}

// newTestShard builds a one-shard middlebox through the sole
// constructor and returns its shard, for tests that poke the tracker,
// queue or aggregator internals.
func newTestShard(run sim.Runner, cfg Config) *TAQ {
	return NewSharded(run, cfg, 1).shards[0]
}

func newTestTAQ(capacity int) (*sim.Engine, *TAQ) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.Capacity = capacity
	t := newTestShard(e, cfg)
	t.Start()
	return e, t
}

func dataPkt(flow packet.FlowID, seq int) *packet.Packet {
	return &packet.Packet{Flow: flow, Pool: packet.PoolNone, Kind: packet.Data, Seq: seq, Size: 500}
}

func synPkt(flow packet.FlowID, pool packet.PoolID) *packet.Packet {
	return &packet.Packet{Flow: flow, Pool: pool, Kind: packet.Syn, Size: 40}
}

// TestFlowStateStrings and TestClassStrings pin both columns of the
// label tables: the name column feeds trace sinks, the label column
// names Stats.Fields entries and Prometheus series.
func TestFlowStateStrings(t *testing.T) {
	want := [numFlowStates]enumLabel{
		{"New", "new"}, {"SlowStart", "slowstart"}, {"Normal", "normal"},
		{"LossRecovery", "lossrecovery"}, {"TimeoutSilence", "timeoutsilence"},
		{"TimeoutRecovery", "timeoutrecovery"}, {"ExtendedSilence", "extendedsilence"},
		{"IdleSilence", "idlesilence"},
	}
	labels := StateLabels()
	for s, w := range want {
		if got := FlowState(s).String(); got != w.name {
			t.Errorf("FlowState(%d).String() = %q, want %q", s, got, w.name)
		}
		if labels[s] != w.label {
			t.Errorf("StateLabels()[%d] = %q, want %q", s, labels[s], w.label)
		}
	}
	if FlowState(99).String() != "Unknown" {
		t.Error("invalid state should be Unknown")
	}
}

func TestClassStrings(t *testing.T) {
	want := [numClasses]enumLabel{
		{"Recovery", "recovery"}, {"NewFlow", "newflow"},
		{"OverPenalized", "overpenalized"}, {"BelowFairShare", "belowfair"},
		{"AboveFairShare", "abovefair"},
	}
	labels := ClassLabels()
	names, _ := Stats{}.Fields()
	for c, w := range want {
		if got := Class(c).String(); got != w.name {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, w.name)
		}
		if labels[c] != w.label {
			t.Errorf("ClassLabels()[%d] = %q, want %q", c, labels[c], w.label)
		}
		if got := names[3+c]; got != "drops_"+w.label {
			t.Errorf("Stats.Fields drop column %d = %q, want %q", c, got, "drops_"+w.label)
		}
	}
	if Class(99).String() != "Unknown" {
		t.Error("invalid class should be Unknown")
	}
}

// TestShardedFlowReadsRouteToOwner: the per-flow reads on a multi-shard
// middlebox must find a flow after its SYN whichever shard owns it, and
// miss an id no shard has seen.
func TestShardedFlowReadsRouteToOwner(t *testing.T) {
	const shards = 4
	mb := NewSharded(sim.NewEngine(1), testConfig(), shards)
	type probe struct {
		id      packet.FlowID
		tracked bool
	}
	cases := []probe{{33, false}, {-1, false}}
	owned := map[int]bool{}
	for id := packet.FlowID(1); id <= 32; id++ {
		mb.Enqueue(synPkt(id, packet.PoolNone))
		if o := ShardOf(id, shards); !owned[o] {
			owned[o] = true
			cases = append(cases, probe{id, true}) // one flow per owning shard
		}
	}
	if len(owned) != shards {
		t.Fatalf("test flows cover %d of %d shards", len(owned), shards)
	}
	for _, tc := range cases {
		st, ok := mb.FlowStateOf(tc.id)
		if ok != tc.tracked || (ok && st != StateNew) {
			t.Errorf("FlowStateOf(%d) = (%v, %v), want tracked=%v in StateNew", tc.id, st, ok, tc.tracked)
		}
		epoch, ok := mb.FlowEpoch(tc.id)
		if ok != tc.tracked || (ok && epoch != testConfig().DefaultEpoch) {
			t.Errorf("FlowEpoch(%d) = (%v, %v), want tracked=%v at the default epoch", tc.id, epoch, ok, tc.tracked)
		}
	}
}

func TestTrackerNewFlowLifecycle(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	if st, ok := q.FlowStateOf(1); !ok || st != StateNew {
		t.Fatalf("after SYN: state %v ok=%v", st, ok)
	}
	e.RunUntil(100 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	if st, _ := q.FlowStateOf(1); st != StateSlowStart {
		t.Errorf("after first data: %v, want SlowStart", st)
	}
	if _, ok := q.FlowStateOf(42); ok {
		t.Error("unknown flow reported as tracked")
	}
}

func TestTrackerRetransmissionDetection(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	e.RunUntil(50 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	q.Enqueue(dataPkt(1, 1))
	// Drain so the next enqueue isn't affected by the buffer.
	for q.Dequeue() != nil {
	}
	// Re-sending seq 0 must be classified as a retransmission and
	// move the (externally-lossy) flow to LossRecovery.
	q.Enqueue(dataPkt(1, 0))
	if st, _ := q.FlowStateOf(1); st != StateLossRecovery {
		t.Errorf("after observed rtx: %v, want LossRecovery", st)
	}
	// The retransmission must sit in the Recovery queue.
	if q.QueueLen(ClassRecovery) != 1 {
		t.Errorf("recovery queue len = %d, want 1", q.QueueLen(ClassRecovery))
	}
}

func TestDropOfRetransmissionPredictsTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.RecoveryCap = 1
	q := newTestShard(e, cfg)
	q.Start()
	q.Enqueue(synPkt(1, packet.PoolNone))
	q.Enqueue(synPkt(2, packet.PoolNone))
	e.RunUntil(50 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	q.Enqueue(dataPkt(2, 0))
	for q.Dequeue() != nil {
	}
	// Two retransmissions with RecoveryCap 1: one must be dropped,
	// and its flow must be marked TimeoutSilence.
	q.Enqueue(dataPkt(1, 0))
	q.Enqueue(dataPkt(2, 0))
	if q.Stats.DropsByClass[ClassRecovery] != 1 {
		t.Fatalf("recovery drops = %d, want 1", q.Stats.DropsByClass[ClassRecovery])
	}
	silenced := 0
	for _, id := range []packet.FlowID{1, 2} {
		if st, _ := q.FlowStateOf(id); st == StateTimeoutSilence {
			silenced++
		}
	}
	if silenced != 1 {
		t.Errorf("flows in TimeoutSilence = %d, want 1", silenced)
	}
}

func TestScanMovesQuietFlowsToSilence(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	e.RunUntil(50 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	for q.Dequeue() != nil {
	}
	// Drop a fresh (non-rtx) packet so the flow enters LossRecovery,
	// then go silent: the scan should infer a timeout silence.
	q.Enqueue(dataPkt(1, 1))
	// Force a drop via a zero-capacity-ish budget: instead, record
	// directly through a victim eviction by filling the buffer.
	for q.Dequeue() != nil {
	}
	q.tracker.recordDrop(dataPkt(1, 2), false)
	if st, _ := q.FlowStateOf(1); st != StateLossRecovery {
		t.Fatalf("state %v, want LossRecovery", st)
	}
	e.RunUntil(2 * sim.Second)
	if st, _ := q.FlowStateOf(1); st != StateTimeoutSilence && st != StateExtendedSilence {
		t.Errorf("after long silence: %v, want TimeoutSilence/ExtendedSilence", st)
	}
	// Much later the silence becomes extended.
	e.RunUntil(5 * sim.Second)
	if st, _ := q.FlowStateOf(1); st != StateExtendedSilence {
		t.Errorf("after longer silence: %v, want ExtendedSilence", st)
	}
}

func TestIdleFlowBecomesIdleSilence(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	e.RunUntil(50 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	for q.Dequeue() != nil {
	}
	// No drops, just silence (e.g. pipelined connection between
	// objects): dummy idle state, not timeout.
	e.RunUntil(3 * sim.Second)
	if st, _ := q.FlowStateOf(1); st != StateIdleSilence {
		t.Errorf("quiet healthy flow state %v, want IdleSilence", st)
	}
}

func TestFlowExpiry(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Second) // > FlowExpiry (60s)
	if _, ok := q.FlowStateOf(1); ok {
		t.Error("expired flow still tracked")
	}
}

func TestRecoveryQueuePriorityBySilence(t *testing.T) {
	var rq recoveryQueue
	rq.push(dataPkt(1, 0), 1*sim.Second)
	rq.push(dataPkt(2, 0), 5*sim.Second)
	rq.push(dataPkt(3, 0), 2*sim.Second)
	if p := rq.popBest(); p.Flow != 2 {
		t.Errorf("best = flow %d, want 2 (longest silence)", p.Flow)
	}
	if p := rq.popWorst(); p.Flow != 1 {
		t.Errorf("worst = flow %d, want 1 (shortest silence)", p.Flow)
	}
	if p := rq.popBest(); p.Flow != 3 {
		t.Errorf("remaining = flow %d, want 3", p.Flow)
	}
	if rq.popBest() != nil || rq.popWorst() != nil {
		t.Error("empty recovery queue should return nil")
	}
}

func TestRecoveryQueueFIFOWithinEqualSilence(t *testing.T) {
	var rq recoveryQueue
	for i := 0; i < 5; i++ {
		rq.push(dataPkt(packet.FlowID(i), 0), sim.Second)
	}
	for i := 0; i < 5; i++ {
		if p := rq.popBest(); p.Flow != packet.FlowID(i) {
			t.Fatalf("pop %d = flow %d, want FIFO", i, p.Flow)
		}
	}
}

func TestSchedulerLevelOrdering(t *testing.T) {
	e, q := newTestTAQ(50)
	_ = e
	// Manually place packets in different classes via the internal
	// queues to verify strict level ordering.
	q.q.fifos[ClassAboveFair].Push(dataPkt(10, 0))
	q.q.fifos[ClassBelowFair].Push(dataPkt(11, 0))
	q.q.recovery.push(dataPkt(12, 0), sim.Second)
	// Level 1 first.
	if p := q.Dequeue(); p.Flow != 12 {
		t.Errorf("first dequeue flow %d, want 12 (recovery)", p.Flow)
	}
	// Then Level 2.
	if p := q.Dequeue(); p.Flow != 11 {
		t.Errorf("second dequeue flow %d, want 11 (below fair)", p.Flow)
	}
	// Then Level 3.
	if p := q.Dequeue(); p.Flow != 10 {
		t.Errorf("third dequeue flow %d, want 10 (above fair)", p.Flow)
	}
	if q.Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
}

func TestRecoveryShareCap(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.RecoveryShare = 0.25
	cfg.RecoveryCap = 1000
	cfg.Capacity = 1000
	q := newTestShard(e, cfg)
	// 100 recovery + 100 below-fair packets queued.
	for i := 0; i < 100; i++ {
		q.q.recovery.push(dataPkt(1, i), sim.Second)
		q.q.fifos[ClassBelowFair].Push(dataPkt(2, i))
	}
	recovered := 0
	for i := 0; i < 100; i++ {
		p := q.Dequeue()
		if p.Flow == 1 {
			recovered++
		}
	}
	if recovered < 20 || recovered > 30 {
		t.Errorf("recovery served %d of first 100, want ≈25 (share cap)", recovered)
	}
	// Work conservation: once below-fair drains, recovery still flows.
	remaining := 0
	for q.Dequeue() != nil {
		remaining++
	}
	if remaining != 100 {
		t.Errorf("drained %d more, want the remaining 100", remaining)
	}
}

func TestBufferEvictionOrder(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.Capacity = 2
	q := newTestShard(e, cfg)
	var dropped []*packet.Packet
	q.AddDropHook(func(p *packet.Packet) { dropped = append(dropped, p) })
	// Fill with two below-fair packets (flows are unknown: they
	// classify via tracker as new flows → NewFlow queue; so drive
	// classification through the internal queues directly).
	q.q.fifos[ClassBelowFair].Push(dataPkt(1, 0))
	q.q.fifos[ClassAboveFair].Push(dataPkt(2, 0))
	q.q.recovery.push(dataPkt(3, 0), sim.Second)
	// Budget exceeded on next enqueue: eviction removes the AboveFair
	// packet first, then BelowFair, bringing the total back to the
	// capacity; the recovery packet survives.
	q.Enqueue(synPkt(4, packet.PoolNone))
	if len(dropped) != 2 || dropped[0].Flow != 2 || dropped[1].Flow != 1 {
		t.Fatalf("dropped = %v, want [above-fair 2, below-fair 1]", dropped)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want capacity 2", q.Len())
	}
	if q.QueueLen(ClassRecovery) != 1 {
		t.Error("recovery packet was evicted despite lower-value victims")
	}
}

func TestNewFlowQueueCapDropsSyns(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.NewFlowCap = 2
	cfg.Capacity = 100
	q := newTestShard(e, cfg)
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	for i := 0; i < 5; i++ {
		q.Enqueue(synPkt(packet.FlowID(i), packet.PoolNone))
	}
	if drops != 3 {
		t.Errorf("drops = %d, want 3 (NewFlowCap 2)", drops)
	}
	if q.QueueLen(ClassNewFlow) != 2 {
		t.Errorf("newflow len = %d", q.QueueLen(ClassNewFlow))
	}
}

func TestLossRateMonitor(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.Capacity = 1
	q := newTestShard(e, cfg)
	q.Start()
	// 1 packet stays queued, the rest dropped: loss ≈ (n-1)/n.
	for i := 0; i < 10; i++ {
		q.Enqueue(dataPkt(1, i))
	}
	if lr := q.LossRate(); lr < 0.5 {
		t.Errorf("loss rate = %v, want high", lr)
	}
	if q.Stats.Arrivals != 10 {
		t.Errorf("arrivals = %d", q.Stats.Arrivals)
	}
}

func TestAdmissionPoolFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	cfg.Twait = 5 * sim.Second
	q := newTestShard(e, cfg)
	q.Start()
	// Force high loss so new pools must wait.
	q.setLossWindow(100, 50, 0, 0)
	if q.LossRate() < cfg.PThresh {
		t.Fatal("test setup: loss rate should exceed threshold")
	}
	q.Enqueue(synPkt(1, 100))
	q.Enqueue(synPkt(2, 200))
	if q.Stats.SynsBlocked != 2 {
		t.Fatalf("SynsBlocked = %d, want 2", q.Stats.SynsBlocked)
	}
	if q.WaitingPools() != 2 {
		t.Fatalf("waiting pools = %d, want 2", q.WaitingPools())
	}
	// Loss clears: the first waiting pool is admitted on retry, the
	// second must wait its turn.
	q.setLossWindow(100, 0, 100, 0)
	q.Enqueue(synPkt(2, 200))
	if q.Stats.SynsBlocked != 3 {
		t.Errorf("pool 200 admitted out of order (blocked=%d)", q.Stats.SynsBlocked)
	}
	q.Enqueue(synPkt(1, 100))
	if got := q.Stats.PoolsAdmitted; got != 1 {
		t.Errorf("PoolsAdmitted = %d, want 1", got)
	}
	// Now pool 200 is head of line.
	q.Enqueue(synPkt(2, 200))
	if got := q.Stats.PoolsAdmitted; got != 2 {
		t.Errorf("PoolsAdmitted = %d, want 2", got)
	}
	if q.Stats.PoolsWaited != 2 {
		t.Errorf("PoolsWaited = %d, want 2", q.Stats.PoolsWaited)
	}
}

func TestAdmissionTwaitGuarantee(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	cfg.Twait = 3 * sim.Second
	q := newTestShard(e, cfg)
	q.Start()
	q.setLossWindow(100, 50, 0, 0) // permanent high loss
	q.Enqueue(synPkt(1, 100))
	if q.Stats.SynsBlocked != 1 {
		t.Fatal("pool should be blocked initially")
	}
	e.RunUntil(4 * sim.Second)
	q.setLossWindow(100, 50, 100, 50) // keep loss high across windows
	q.Enqueue(synPkt(1, 100))
	if q.Stats.PoolsAdmitted != 1 || q.Stats.PoolsForced != 1 {
		t.Errorf("pool not force-admitted after Twait despite guarantee (admitted=%d forced=%d)",
			q.Stats.PoolsAdmitted, q.Stats.PoolsForced)
	}
}

func TestAdmissionPoolNoneAlwaysAllowed(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	q := newTestShard(e, cfg)
	q.setLossWindow(100, 90, 0, 0)
	q.Enqueue(synPkt(1, packet.PoolNone))
	if q.Stats.SynsBlocked != 0 {
		t.Error("pool-less SYN blocked")
	}
}

func TestDataOfUnadmittedPoolDropped(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	q := newTestShard(e, cfg)
	q.setLossWindow(100, 90, 0, 0)
	q.Enqueue(synPkt(1, 100)) // blocked
	p := dataPkt(1, 0)
	p.Pool = 100
	q.Enqueue(p)
	if q.Len() != 0 {
		t.Error("data of unadmitted pool was queued")
	}
}

func TestFairShareTracksActiveFlows(t *testing.T) {
	e, q := newTestTAQ(100)
	if q.FairShare() != float64(600*link.Kbps) {
		t.Errorf("initial fair share = %v", q.FairShare())
	}
	for i := 0; i < 6; i++ {
		q.Enqueue(synPkt(packet.FlowID(i), packet.PoolNone))
	}
	e.RunUntil(500 * sim.Millisecond) // let a scan run
	if fs := q.FairShare(); fs > 110_000 || fs < 90_000 {
		t.Errorf("fair share = %v, want ≈100k (600k/6)", fs)
	}
	if q.ActiveFlows() != 6 {
		t.Errorf("active flows = %d, want 6", q.ActiveFlows())
	}
}

func TestStateCensus(t *testing.T) {
	e, q := newTestTAQ(100)
	q.Enqueue(synPkt(1, packet.PoolNone))
	q.Enqueue(synPkt(2, packet.PoolNone))
	e.RunUntil(50 * sim.Millisecond)
	q.Enqueue(dataPkt(1, 0))
	census := q.StateCensus()
	if census[StateNew] != 1 || census[StateSlowStart] != 1 {
		t.Errorf("census = %v", census)
	}
}

func TestStopCancelsScan(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Stop()
	e.RunUntil(10 * sim.Second)
	// No panic, no further scans: the engine must drain fully.
	if e.Pending() != 0 {
		t.Errorf("pending events after stop = %d", e.Pending())
	}
}

func TestBytesAccounting(t *testing.T) {
	e, q := newTestTAQ(50)
	_ = e
	q.Enqueue(synPkt(1, packet.PoolNone))
	q.Enqueue(dataPkt(2, 0)) // unknown flow → tracked, first data
	if q.Bytes() != 540 {
		t.Errorf("Bytes = %d, want 540", q.Bytes())
	}
	q.Dequeue()
	q.Dequeue()
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Errorf("drained queue: Bytes=%d Len=%d", q.Bytes(), q.Len())
	}
}

func TestTwoWayRTTEstimation(t *testing.T) {
	e, q := newTestTAQ(50)
	q.Enqueue(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Millisecond)
	// Simulate a steady ack-clocked exchange with a true RTT of
	// 300ms: data forwarded, ack 200ms later (downstream), next data
	// 100ms after the ack (upstream).
	seq := 0
	for i := 0; i < 20; i++ {
		q.Enqueue(dataPkt(1, seq))
		for q.Dequeue() != nil {
		}
		e.RunUntil(e.Now() + 200*sim.Millisecond)
		q.ObserveReverse(&packet.Packet{Flow: 1, Kind: packet.Ack, CumAck: seq + 1, Size: 40})
		e.RunUntil(e.Now() + 100*sim.Millisecond)
		seq++
	}
	epoch, ok := q.FlowEpoch(1)
	if !ok {
		t.Fatal("flow not tracked")
	}
	if epoch < 250*sim.Millisecond || epoch > 350*sim.Millisecond {
		t.Errorf("two-way epoch = %v, want ≈300ms", epoch)
	}
}

func TestExpectedWaitEstimate(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	cfg.Twait = 5 * sim.Second
	q := newTestShard(e, cfg)
	q.Start()
	q.setLossWindow(100, 50, 0, 0) // high loss: pools must wait
	q.Enqueue(synPkt(1, 100))
	q.Enqueue(synPkt(2, 200))
	q.Enqueue(synPkt(3, 300))
	// Pool 100 heads the line: ≤ Twait. Pool 300 is third: ≥ 2×Twait.
	w1 := q.ExpectedWait(100)
	w3 := q.ExpectedWait(300)
	if w1 <= 0 || w1 > 5*sim.Second {
		t.Errorf("head wait = %v, want (0, 5s]", w1)
	}
	if w3 < 2*5*sim.Second {
		t.Errorf("third wait = %v, want ≥ 10s", w3)
	}
	if q.ExpectedWait(999) != 0 {
		t.Error("unknown pool should have zero wait")
	}
}

func TestPoolFairShare(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.PoolFairShare = true
	q := newTestShard(e, cfg)
	q.Start()
	// Pool 100 has 3 flows; flow 9 is pool-less (a singleton pool).
	for i := packet.FlowID(1); i <= 3; i++ {
		q.Enqueue(synPkt(i, 100))
	}
	q.Enqueue(synPkt(9, packet.PoolNone))
	e.RunUntil(300 * sim.Millisecond) // let the scan cache pool stats
	fPooled := q.tracker.get(1)
	fSingle := q.tracker.get(9)
	sPooled := q.flowFairShare(fPooled)
	sSingle := q.flowFairShare(fSingle)
	// Two pools → 300k each; the pooled flows split theirs 3 ways.
	if sSingle < 290e3 || sSingle > 310e3 {
		t.Errorf("singleton share = %v, want ≈300k", sSingle)
	}
	if sPooled < 90e3 || sPooled > 110e3 {
		t.Errorf("pooled flow share = %v, want ≈100k", sPooled)
	}
	if 3*sPooled+sSingle < 0.95*600e3 || 3*sPooled+sSingle > 1.05*600e3 {
		t.Errorf("shares sum to %v, want ≈600k", 3*sPooled+sSingle)
	}
}

func TestAdmissionPoolExpiry(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	cfg.FlowExpiry = 5 * sim.Second
	q := newTestShard(e, cfg)
	q.Start()
	q.Enqueue(synPkt(1, 100)) // admitted (low loss)
	if q.Stats.PoolsAdmitted != 1 {
		t.Fatalf("PoolsAdmitted = %d", q.Stats.PoolsAdmitted)
	}
	// Pool goes idle past FlowExpiry: it must be evicted so its state
	// does not accumulate; a fresh SYN re-admits it.
	e.RunUntil(10 * sim.Second)
	q.Enqueue(synPkt(2, 100))
	if q.Stats.PoolsAdmitted != 2 {
		t.Errorf("expired pool was not re-admitted afresh (admitted=%d)", q.Stats.PoolsAdmitted)
	}
}
