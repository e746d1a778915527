package core

import (
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

// TestAdmissionNotLockedByOwnDrops is the regression test for the
// admission lockout feedback loop: blocked SYNs used to count as loss-
// window drops, so a storm of un-admitted pools inflated the LossRate
// that gates allowSyn and held admission shut indefinitely (short of
// the Twait pacer) even after real congestion cleared.
func TestAdmissionNotLockedByOwnDrops(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.AdmissionControl = true
	cfg.Twait = 1000 * sim.Second // rule out the force-admit escape hatch
	q := newTestShard(e, cfg)
	q.Start()

	// One real congestion episode pushes the measured loss past the
	// admission threshold...
	q.setLossWindow(100, 50, 0, 0)
	storm := func() {
		for i := 0; i < 500; i++ {
			q.Enqueue(synPkt(packet.FlowID(1000+i), packet.PoolID(1000+i)))
			// Drain admitted SYNs so the NewFlow queue cap doesn't
			// turn the storm into real congestion drops.
			for q.Dequeue() != nil {
			}
		}
	}
	// ...so a storm of new pools is blocked.
	storm()
	if q.Stats.SynsBlocked != 500 {
		t.Fatalf("SynsBlocked = %d, want 500", q.Stats.SynsBlocked)
	}
	if q.Stats.PolicyDrops != 500 {
		t.Fatalf("PolicyDrops = %d, want 500", q.Stats.PolicyDrops)
	}

	// The congestion is over: no further real drops. Two loss windows
	// pass so the 100/50 episode ages out of LossRate, with the blocked
	// pools retrying their SYNs the whole time. The retries themselves
	// are policy drops and must not keep the measured loss high.
	for w := 0; w < 2; w++ {
		e.RunUntil(e.Now() + cfg.LossWindow + cfg.ScanInterval)
		storm()
	}
	e.RunUntil(e.Now() + cfg.LossWindow + cfg.ScanInterval)
	if lr := q.LossRate(); lr >= q.agg.adm.threshold() {
		t.Fatalf("LossRate = %v after congestion cleared, want < admission threshold %v (policy drops leaked into the loss window)",
			lr, q.agg.adm.threshold())
	}
	storm()
	if got := q.Stats.PoolsAdmitted; got != 500 {
		t.Errorf("PoolsAdmitted = %d, want all 500 once real loss cleared (admission locked by its own drops)", got)
	}
	if e.Now() >= cfg.Twait {
		t.Fatalf("test ran past Twait=%v; the assertion no longer isolates the feedback loop", cfg.Twait)
	}
}

// TestRecoveryShareCapIsWindowed is the regression test for recovery-
// share credit accumulation: with run-lifetime serve counters, a long
// recovery-free period banked RecoveryShare×lifetime services of
// credit, so a late retransmission burst held strict Level-1 priority
// far beyond the intended share. The cap must compare windowed
// counters that roll with the loss window.
func TestRecoveryShareCapIsWindowed(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.RecoveryShare = 0.25
	cfg.RecoveryCap = 1000
	cfg.Capacity = 1000
	q := newTestShard(e, cfg)
	q.Start()

	// A long recovery-free history: 1000 below-fair services.
	for i := 0; i < 1000; i++ {
		q.q.fifos[ClassBelowFair].Push(dataPkt(2, i))
	}
	for q.Dequeue() != nil {
	}
	// Two loss windows pass; the banked history must age out.
	e.RunUntil(e.Now() + 2*(cfg.LossWindow+cfg.ScanInterval))

	// A late recovery burst competes with fresh below-fair traffic.
	for i := 0; i < 100; i++ {
		q.q.recovery.push(dataPkt(1, i), sim.Second)
		q.q.fifos[ClassBelowFair].Push(dataPkt(3, i))
	}
	recovered := 0
	for i := 0; i < 100; i++ {
		if p := q.Dequeue(); p.Flow == 1 {
			recovered++
		}
	}
	if recovered < 20 || recovered > 30 {
		t.Errorf("late recovery burst served %d of first 100, want ≈25 (the share cap must be windowed, not lifetime)", recovered)
	}
}
