package core

import (
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

func newTestTracker() (*sim.Engine, *tracker) {
	e := sim.NewEngine(1)
	return e, newTracker(e, &Stats{})
}

func TestTrackerEpochSeedFromSynDataGap(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(150 * sim.Millisecond)
	f, rtx := tr.observe(dataPkt(1, 0))
	if rtx {
		t.Fatal("first data flagged as retransmission")
	}
	if f.epoch != 150*sim.Millisecond {
		t.Errorf("epoch = %v, want 150ms (SYN→data gap)", f.epoch)
	}
}

func TestTrackerEpochSeedIgnoresImplausibleGaps(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	// A multi-second gap (e.g. SYN retry storms) must not become the
	// epoch estimate.
	e.RunUntil(30 * sim.Second)
	f, _ := tr.observe(dataPkt(1, 0))
	if f.epoch != defaultEpoch {
		t.Errorf("epoch = %v, want default %v", f.epoch, defaultEpoch)
	}
}

func TestTrackerBurstRefinement(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(200 * sim.Millisecond)
	tr.observe(dataPkt(1, 0)) // epoch seeded at 200ms
	// Deliver bursts every 300ms: the EWMA should drift upward.
	seq := 1
	for i := 0; i < 20; i++ {
		e.RunUntil(e.Now() + 300*sim.Millisecond)
		for j := 0; j < 3; j++ {
			tr.observe(dataPkt(1, seq))
			seq++
		}
	}
	f := tr.get(1)
	if f.epoch <= 200*sim.Millisecond || f.epoch > 400*sim.Millisecond {
		t.Errorf("epoch = %v, want drifted toward 300ms", f.epoch)
	}
}

func TestTrackerStateMachinePath(t *testing.T) {
	e, tr := newTestTracker()
	// SYN → New.
	f, _ := tr.observe(synPkt(1, packet.PoolNone))
	if f.state != StateNew {
		t.Fatalf("after SYN: %v", f.state)
	}
	e.RunUntil(100 * sim.Millisecond)
	// First data → SlowStart.
	tr.observe(dataPkt(1, 0))
	if f.state != StateSlowStart {
		t.Fatalf("after data: %v", f.state)
	}
	// TAQ drops a new packet → LossRecovery.
	tr.recordDrop(dataPkt(1, 1), false)
	if f.state != StateLossRecovery {
		t.Fatalf("after drop: %v", f.state)
	}
	// The retransmission arrives → outstanding drop cleared.
	tr.observe(dataPkt(1, 1)) // seq 1 ≤ highSeq? highSeq=0, so this is NEW
	// seq 1 > highSeq 0: counts as new data; with outstandingDrops
	// still pending the flow stays in LossRecovery.
	if f.state != StateLossRecovery {
		t.Fatalf("after new data during recovery: %v", f.state)
	}
	// An actual retransmission (seq ≤ highSeq) clears the drop...
	tr.observe(dataPkt(1, 1))
	if f.outstandingDrops != 0 {
		t.Fatalf("outstandingDrops = %d", f.outstandingDrops)
	}
	// ...and the next new packet returns the flow to Normal.
	tr.observe(dataPkt(1, 2))
	if f.state != StateNormal {
		t.Fatalf("after recovery: %v", f.state)
	}
	if f.protectEpochs == 0 {
		t.Error("recovered flow should carry protection epochs")
	}
}

func TestTrackerTimeoutSilencePath(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Millisecond)
	tr.observe(dataPkt(1, 0))
	tr.observe(dataPkt(1, 1))
	f := tr.get(1)
	// Dropping a retransmission predicts a timeout.
	tr.recordDrop(dataPkt(1, 0), true)
	if f.state != StateTimeoutSilence {
		t.Fatalf("after rtx drop: %v", f.state)
	}
	// A retransmission arriving after the silence → TimeoutRecovery.
	e.RunUntil(e.Now() + 2*sim.Second)
	f.roll(e.Now())
	tr.observe(dataPkt(1, 0))
	if f.state != StateTimeoutRecovery {
		t.Fatalf("after rtx arrival: %v", f.state)
	}
	// New data past the loss → SlowStart with protection.
	tr.observe(dataPkt(1, 2))
	if f.state != StateSlowStart || f.protectEpochs == 0 {
		t.Fatalf("after recovery: %v protect=%d", f.state, f.protectEpochs)
	}
}

func TestTrackerExtendedSilenceViaScan(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Millisecond)
	tr.observe(dataPkt(1, 0))
	tr.recordDrop(dataPkt(1, 0), true) // → TimeoutSilence
	f := tr.get(1)
	e.RunUntil(5 * sim.Second)
	tr.scan()
	if f.state != StateExtendedSilence {
		t.Errorf("after long silence: %v, want ExtendedSilence", f.state)
	}
	// An eventual rtx drop during extended silence keeps it extended.
	tr.recordDrop(dataPkt(1, 0), true)
	if f.state != StateExtendedSilence {
		t.Errorf("rtx drop in extended silence: %v", f.state)
	}
}

func TestTrackerSlowStartFlattensToNormal(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(200 * sim.Millisecond)
	// Epoch 1: 4 packets. Epoch 2: 4 packets (no growth) → Normal.
	seq := 0
	for j := 0; j < 4; j++ {
		tr.observe(dataPkt(1, seq))
		seq++
	}
	e.RunUntil(e.Now() + 250*sim.Millisecond)
	f := tr.get(1)
	for j := 0; j < 4; j++ {
		tr.observe(dataPkt(1, seq))
		seq++
	}
	if f.state != StateNormal {
		t.Errorf("flat growth state = %v, want Normal", f.state)
	}
}

func TestTrackerRateEWMA(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(200 * sim.Millisecond)
	seq := 0
	// 5 packets (2500 bytes) per 200ms epoch = 100 kbps.
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			tr.observe(dataPkt(1, seq))
			seq++
		}
		e.RunUntil(e.Now() + 200*sim.Millisecond)
	}
	f := tr.get(1)
	f.roll(e.Now())
	if f.rateEWMA < 60e3 || f.rateEWMA > 140e3 {
		t.Errorf("rateEWMA = %.0f, want ≈100k", f.rateEWMA)
	}
}

func TestTrackerSynRetryDoesNotResetDataState(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Millisecond)
	tr.observe(dataPkt(1, 0))
	f := tr.get(1)
	// A stray SYN retry after data flowed must not reset the state.
	tr.observe(synPkt(1, packet.PoolNone))
	if f.state == StateNew {
		t.Error("SYN retry reset an established flow to New")
	}
}

func TestActiveStatsCountsTimeoutFlows(t *testing.T) {
	e, tr := newTestTracker()
	tr.observe(synPkt(1, packet.PoolNone))
	e.RunUntil(100 * sim.Millisecond)
	tr.observe(dataPkt(1, 0))
	tr.recordDrop(dataPkt(1, 0), true) // TimeoutSilence
	// Long silence: flow is quiet but in a timeout state — it still
	// counts as active (it deserves fair share when it returns).
	e.RunUntil(10 * sim.Second)
	n, inv := tr.activeStats()
	if n != 1 || inv <= 0 {
		t.Errorf("activeStats = %d, %v; timed-out flow should stay active", n, inv)
	}
}
