package tcp_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// harness wires a sender and receiver together over a fixed-delay path
// with a programmable forward-path drop filter.
type harness struct {
	e *sim.Engine
	s *tcp.Sender
	r *tcp.Receiver
	// drop decides whether a forward (sender→receiver) packet is lost.
	drop func(*packet.Packet) bool
	// forwarded counts forward packets that survived.
	forwarded int
}

func newHarness(t *testing.T, cfg tcp.Config, app tcp.App, oneWay sim.Time) *harness {
	t.Helper()
	h := &harness{e: sim.NewEngine(1)}
	h.r = tcp.NewReceiver(h.e, cfg, 1, packet.PoolNone, func(p *packet.Packet) {
		h.e.Schedule(oneWay, func() { h.s.Deliver(p) })
	})
	h.s = tcp.NewSender(h.e, cfg, 1, packet.PoolNone, app, func(p *packet.Packet) {
		if h.drop != nil && h.drop(p) {
			return
		}
		h.forwarded++
		h.e.Schedule(oneWay, func() { h.r.Deliver(p) })
	})
	return h
}

func TestHandshake(t *testing.T) {
	cfg := tcp.DefaultConfig()
	h := newHarness(t, cfg, &tcp.SizedApp{Total: 0}, 50*sim.Millisecond)
	established := false
	h.s.OnEstablished = func() { established = true }
	h.s.Start()
	h.e.Run()
	if !established || !h.s.Established() {
		t.Fatal("handshake did not complete")
	}
	if h.s.SRTT() != 100*sim.Millisecond {
		t.Errorf("SRTT = %v, want 100ms (SYN sample)", h.s.SRTT())
	}
}

func TestBulkTransferDeliversInOrder(t *testing.T) {
	cfg := tcp.DefaultConfig()
	app := &tcp.SizedApp{Total: 200}
	done := false
	app.OnComplete = func() { done = true }
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if h.r.SegmentsDelivered != 200 {
		t.Errorf("delivered %d segments, want 200", h.r.SegmentsDelivered)
	}
	if h.s.Stats.Retransmits != 0 || h.s.Stats.Timeouts != 0 {
		t.Errorf("lossless path produced retransmits=%d timeouts=%d",
			h.s.Stats.Retransmits, h.s.Stats.Timeouts)
	}
	if h.r.CumAck() != 200 {
		t.Errorf("receiver cumAck = %d", h.r.CumAck())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	cfg := tcp.DefaultConfig()
	h := newHarness(t, cfg, tcp.BulkApp{}, 10*sim.Millisecond)
	h.s.Start()
	// Handshake done at 20ms; then cwnd doubles each 20ms RTT.
	h.e.RunUntil(120 * sim.Millisecond)
	if h.s.Cwnd() < 8 {
		t.Errorf("cwnd = %f after several RTTs, want exponential growth", h.s.Cwnd())
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.InitialSsthresh = 4 // force CA early
	h := newHarness(t, cfg, tcp.BulkApp{}, 10*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(100 * sim.Millisecond)
	c1 := h.s.Cwnd()
	h.e.RunUntil(120 * sim.Millisecond) // one more RTT
	c2 := h.s.Cwnd()
	if c2-c1 > 1.5 {
		t.Errorf("CA grew cwnd by %f in one RTT, want ≈1", c2-c1)
	}
	if c2 <= c1 {
		t.Errorf("CA did not grow cwnd (%f -> %f)", c1, c2)
	}
}

func TestFastRetransmitAvoidsTimeout(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.InitialCwnd = 8 // enough packets in flight for 3 dupacks
	app := &tcp.SizedApp{Total: 100}
	done := false
	app.OnComplete = func() { done = true }
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	dropped := false
	h.drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Data && p.Seq == 4 && !dropped && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	h.s.Start()
	h.e.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if h.s.Stats.FastRetransmits != 1 {
		t.Errorf("FastRetransmits = %d, want 1", h.s.Stats.FastRetransmits)
	}
	if h.s.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (single loss, big window)", h.s.Stats.Timeouts)
	}
}

func TestSmallWindowLossForcesTimeout(t *testing.T) {
	// With cwnd=2 a single loss cannot generate 3 dupacks: the flow
	// must recover via RTO — the core small-packet-regime mechanism.
	cfg := tcp.DefaultConfig()
	cfg.InitialCwnd = 2
	cfg.InitialSsthresh = 2 // hold the window small
	app := &tcp.SizedApp{Total: 20}
	done := false
	app.OnComplete = func() { done = true }
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	dropped := false
	h.drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Data && p.Seq == 2 && !dropped && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	h.s.Start()
	h.e.RunUntil(120 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if h.s.Stats.Timeouts < 1 {
		t.Errorf("Timeouts = %d, want ≥1", h.s.Stats.Timeouts)
	}
	if h.s.Stats.FastRetransmits != 0 {
		t.Errorf("FastRetransmits = %d, want 0 at cwnd 2", h.s.Stats.FastRetransmits)
	}
}

func TestRepetitiveTimeoutBackoffAndCollapse(t *testing.T) {
	cfg := tcp.DefaultConfig()
	app := &tcp.SizedApp{Total: 50}
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	blackout := true
	h.drop = func(p *packet.Packet) bool { return blackout && p.Kind == packet.Data }
	h.s.Start()
	// Let several RTOs back off during the blackout.
	h.e.RunUntil(20 * sim.Second)
	if h.s.Stats.RepetitiveTimeouts < 2 {
		t.Fatalf("RepetitiveTimeouts = %d, want ≥2 during blackout", h.s.Stats.RepetitiveTimeouts)
	}
	if h.s.Backoff() < 4 {
		t.Fatalf("backoff = %d, want ≥4 during blackout", h.s.Backoff())
	}
	// Heal the path: backoff must collapse to 1 once a newly
	// transmitted (not retransmitted) segment is cumulatively acked.
	blackout = false
	h.e.RunUntil(200 * sim.Second)
	if !app.Done() {
		t.Fatal("transfer did not complete after blackout lifted")
	}
	if h.s.Backoff() != 1 {
		t.Errorf("backoff = %d after recovery, want 1", h.s.Backoff())
	}
}

func TestSackRecoversMultipleLosses(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.SACK = true
	cfg.InitialCwnd = 10
	app := &tcp.SizedApp{Total: 100}
	done := false
	app.OnComplete = func() { done = true }
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	lost := map[int]bool{4: true, 6: true}
	h.drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Data && lost[p.Seq] && !p.Retransmit {
			delete(lost, p.Seq)
			return true
		}
		return false
	}
	h.s.Start()
	h.e.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if h.r.SegmentsDelivered != 100 {
		t.Errorf("delivered = %d", h.r.SegmentsDelivered)
	}
	if h.s.Stats.Timeouts != 0 {
		t.Errorf("SACK recovery took %d timeouts, want 0", h.s.Stats.Timeouts)
	}
}

func TestSackBeyondHighTxIgnored(t *testing.T) {
	// A SACK block naming a segment the sender has not transmitted yet
	// (a corrupt or hostile ack) must not be recorded: trySend and
	// retransmitHole both skip sacked segments, so the segment would
	// never go out and the flow would sit in an RTO loop forever.
	cfg := tcp.DefaultConfig()
	cfg.SACK = true
	app := &tcp.SizedApp{Total: 40}
	e := sim.NewEngine(1)
	var s *tcp.Sender
	forged := false
	r := tcp.NewReceiver(e, cfg, 1, packet.PoolNone, func(p *packet.Packet) {
		if p.Kind == packet.Ack && !forged {
			forged = true
			p.Sacked = append(p.Sacked, 20, 1<<40)
		}
		e.Schedule(10*sim.Millisecond, func() { s.Deliver(p) })
	})
	s = tcp.NewSender(e, cfg, 1, packet.PoolNone, app, func(p *packet.Packet) {
		e.Schedule(10*sim.Millisecond, func() { r.Deliver(p) })
	})
	s.Start()
	e.RunUntil(60 * sim.Second)
	if !app.Done() {
		t.Fatalf("transfer stalled at cum=%d after a SACK block beyond highTx (timeouts=%d)",
			s.CumAck(), s.Stats.Timeouts)
	}
	if s.Stats.Timeouts != 0 || s.Stats.Retransmits != 0 {
		t.Errorf("lossless path: timeouts=%d retransmits=%d, want 0",
			s.Stats.Timeouts, s.Stats.Retransmits)
	}
}

func TestSynRetry(t *testing.T) {
	cfg := tcp.DefaultConfig()
	h := newHarness(t, cfg, &tcp.SizedApp{Total: 0}, 10*sim.Millisecond)
	drops := 0
	h.drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Syn && drops < 2 {
			drops++
			return true
		}
		return false
	}
	h.s.Start()
	h.e.RunUntil(30 * sim.Second)
	if !h.s.Established() {
		t.Fatal("connection never established")
	}
	if h.s.Stats.SynRetries != 2 {
		t.Errorf("SynRetries = %d, want 2", h.s.Stats.SynRetries)
	}
	// SYN retries must not contribute an RTT sample (Karn).
	if h.s.SRTT() != 0 {
		t.Errorf("SRTT sampled from retransmitted SYN: %v", h.s.SRTT())
	}
}

func TestSynGiveUp(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.MaxSynRetries = 2
	h := newHarness(t, cfg, tcp.BulkApp{}, 10*sim.Millisecond)
	h.drop = func(p *packet.Packet) bool { return p.Kind == packet.Syn }
	failed := false
	h.s.OnFail = func() { failed = true }
	h.s.Start()
	h.e.RunUntil(300 * sim.Second)
	if !failed || !h.s.Failed() {
		t.Error("sender did not give up after MaxSynRetries")
	}
}

func TestObjectAppPipelining(t *testing.T) {
	cfg := tcp.DefaultConfig()
	app := &tcp.ObjectApp{}
	var completed []int
	app.OnObjectComplete = func(i int) { completed = append(completed, i) }
	app.AddObject(5)
	app.AddObject(3)
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(5 * sim.Second)
	if len(completed) != 2 || completed[0] != 0 || completed[1] != 1 {
		t.Fatalf("completed = %v", completed)
	}
	if app.Outstanding() != 0 {
		t.Errorf("outstanding = %d", app.Outstanding())
	}
	// Queue a third object mid-flight: the same connection carries it.
	done3 := false
	app.OnObjectComplete = func(i int) { done3 = i == 2 }
	app.AddObject(4)
	h.s.Notify()
	h.e.RunUntil(10 * sim.Second)
	if !done3 {
		t.Error("third (late-added) object did not complete")
	}
}

func TestReceiverDupSegments(t *testing.T) {
	cfg := tcp.DefaultConfig()
	e := sim.NewEngine(1)
	var acks []*packet.Packet
	r := tcp.NewReceiver(e, cfg, 1, packet.PoolNone, func(p *packet.Packet) { acks = append(acks, p) })
	r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 0, Size: 500})
	r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 0, Size: 500})
	if r.DupSegments != 1 {
		t.Errorf("DupSegments = %d, want 1", r.DupSegments)
	}
	if len(acks) != 2 || acks[1].CumAck != 1 {
		t.Errorf("acks = %v", acks)
	}
}

func TestReceiverSackBlocks(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.SACK = true
	e := sim.NewEngine(1)
	var last *packet.Packet
	r := tcp.NewReceiver(e, cfg, 1, packet.PoolNone, func(p *packet.Packet) { last = p })
	r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 2, Size: 500})
	r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 4, Size: 500})
	if last.CumAck != 0 {
		t.Errorf("CumAck = %d, want 0", last.CumAck)
	}
	if len(last.Sacked) != 2 || last.Sacked[0] != 2 || last.Sacked[1] != 4 {
		t.Errorf("Sacked = %v, want [2 4]", last.Sacked)
	}
}

func TestRTOCalculationRFC6298(t *testing.T) {
	// Two samples of R=200ms: after the SYN sample srtt=200ms,
	// rttvar=100ms; after the data sample rttvar=(3*100+0)/4=75ms,
	// so rto = 200 + 4*75 = 500ms.
	cfg := tcp.DefaultConfig()
	cfg.MinRTO = 100 * sim.Millisecond
	h := newHarness(t, cfg, &tcp.SizedApp{Total: 1}, 100*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(10 * sim.Second)
	if h.s.RTO() != 500*sim.Millisecond {
		t.Errorf("RTO = %v, want 500ms", h.s.RTO())
	}
	if h.s.SRTT() != 200*sim.Millisecond {
		t.Errorf("SRTT = %v, want 200ms", h.s.SRTT())
	}
}

func TestRTOMinClamp(t *testing.T) {
	cfg := tcp.DefaultConfig() // MinRTO 1s
	h := newHarness(t, cfg, &tcp.SizedApp{Total: 1}, sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(10 * sim.Second)
	if h.s.RTO() != cfg.MinRTO {
		t.Errorf("RTO = %v, want clamped to %v", h.s.RTO(), cfg.MinRTO)
	}
}

func TestSizedAppAvailable(t *testing.T) {
	a := &tcp.SizedApp{Total: 10}
	if a.Available(0) != 10 || a.Available(9) != 1 || a.Available(10) != 0 || a.Available(11) != 0 {
		t.Error("SizedApp.Available wrong")
	}
}

func TestBulkAppNeverExhausts(t *testing.T) {
	var a tcp.BulkApp
	if a.Available(1<<20) <= 0 {
		t.Error("BulkApp exhausted")
	}
}

func TestStopCancelsTimers(t *testing.T) {
	cfg := tcp.DefaultConfig()
	h := newHarness(t, cfg, tcp.BulkApp{}, 10*sim.Millisecond)
	h.drop = func(p *packet.Packet) bool { return true } // black hole
	h.s.Start()
	h.e.RunUntil(sim.Second)
	h.s.Stop()
	before := h.s.Stats.SynRetries
	h.e.RunUntil(100 * sim.Second)
	if h.s.Stats.SynRetries != before {
		t.Error("timers still firing after Stop")
	}
}

// Heavy random-loss soak: every segment must still be delivered
// exactly once, in order, regardless of loss pattern.
func TestLossyDeliverySoak(t *testing.T) {
	for _, mode := range []bool{false, true} {
		cfg := tcp.DefaultConfig()
		cfg.SACK = mode
		cfg.MinRTO = 200 * sim.Millisecond
		app := &tcp.SizedApp{Total: 300}
		done := false
		app.OnComplete = func() { done = true }
		h := newHarness(t, cfg, app, 10*sim.Millisecond)
		rng := h.e.Rand()
		h.drop = func(p *packet.Packet) bool {
			return p.Kind == packet.Data && rng.Float64() < 0.15
		}
		h.s.Start()
		h.e.RunUntil(3000 * sim.Second)
		if !done {
			t.Fatalf("sack=%v: transfer incomplete: delivered %d, cumAck %d, timeouts %d",
				mode, h.r.SegmentsDelivered, h.s.CumAck(), h.s.Stats.Timeouts)
		}
		if h.r.SegmentsDelivered != 300 {
			t.Errorf("sack=%v: delivered = %d, want 300", mode, h.r.SegmentsDelivered)
		}
		if h.s.Stats.Timeouts == 0 {
			t.Errorf("sack=%v: expected some timeouts at 15%% loss", mode)
		}
	}
}

func TestDelayedAckHalvesAcks(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.DelayedAck = true
	app := &tcp.SizedApp{Total: 100}
	done := false
	app.OnComplete = func() { done = true }
	h := newHarness(t, cfg, app, 10*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(120 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete with delayed acks")
	}
	// Roughly one ack per two segments (plus timer-forced acks).
	if h.r.AcksSent > 75 {
		t.Errorf("AcksSent = %d for 100 segments, want ≈50 with delayed acks", h.r.AcksSent)
	}
	if h.r.AcksSent < 40 {
		t.Errorf("AcksSent = %d suspiciously low", h.r.AcksSent)
	}
}

// TestDelayedAckTimerFiresForLoneSegment holds the ack of a lone
// segment for the configured timeout, and for 100 ms when none is set.
func TestDelayedAckTimerFiresForLoneSegment(t *testing.T) {
	for _, tc := range []struct{ timeout, want sim.Time }{
		{50 * sim.Millisecond, 50 * sim.Millisecond},
		{0, 100 * sim.Millisecond},
	} {
		cfg := tcp.DefaultConfig()
		cfg.DelayedAck = true
		cfg.DelAckTimeout = tc.timeout
		e := sim.NewEngine(1)
		var acks []sim.Time
		r := tcp.NewReceiver(e, cfg, 1, packet.PoolNone, func(p *packet.Packet) {
			if p.Kind == packet.Ack {
				acks = append(acks, e.Now())
			}
		})
		r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 0, Size: 500})
		e.RunUntil(sim.Second)
		if len(acks) != 1 || acks[0] != tc.want {
			t.Errorf("DelAckTimeout %v: acks = %v, want one at %v", tc.timeout, acks, tc.want)
		}
	}
}

func TestDelayedAckImmediateOnOutOfOrder(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.DelayedAck = true
	e := sim.NewEngine(1)
	acks := 0
	r := tcp.NewReceiver(e, cfg, 1, packet.PoolNone, func(p *packet.Packet) { acks++ })
	// Out-of-order arrival must be acked immediately (dupack for fast
	// retransmit).
	r.Deliver(&packet.Packet{Kind: packet.Data, Seq: 3, Size: 500})
	if acks != 1 {
		t.Errorf("acks = %d after OOO segment, want immediate dupack", acks)
	}
}

func TestFixedRTOPinsTimeout(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.FixedRTO = 400 * sim.Millisecond
	h := newHarness(t, cfg, &tcp.SizedApp{Total: 5}, 10*sim.Millisecond)
	h.s.Start()
	h.e.RunUntil(10 * sim.Second)
	if h.s.RTO() != 400*sim.Millisecond {
		t.Errorf("RTO = %v, want pinned 400ms", h.s.RTO())
	}
	if h.s.SRTT() == 0 {
		t.Error("SRTT should still be tracked under FixedRTO")
	}
}

// Property: whatever the (finite) loss pattern, a sized transfer
// completes with every segment delivered exactly once in order, the
// cumulative ack never regresses, and retransmissions only ever cover
// dropped or reordered data.
func TestTransferInvariantProperty(t *testing.T) {
	check := func(seed int64, lossPct uint8, sack bool) bool {
		loss := float64(lossPct%30) / 100 // 0..29%
		cfg := tcp.DefaultConfig()
		cfg.SACK = sack
		cfg.MinRTO = 200 * sim.Millisecond
		app := &tcp.SizedApp{Total: 60}
		h := newHarness(t, cfg, app, 10*sim.Millisecond)
		rng := rand.New(rand.NewSource(seed))
		h.drop = func(p *packet.Packet) bool {
			return p.Kind == packet.Data && rng.Float64() < loss
		}
		lastCum := 0
		h.s.OnEstablished = func() {}
		h.s.Start()
		for i := 0; i < 400000 && !app.Done(); i++ {
			if !h.e.Step() {
				break
			}
			if c := h.s.CumAck(); c < lastCum {
				t.Errorf("cumAck regressed %d -> %d", lastCum, c)
				return false
			} else {
				lastCum = c
			}
		}
		if !app.Done() {
			t.Errorf("seed=%d loss=%.2f sack=%v: incomplete (cum=%d)", seed, loss, sack, h.s.CumAck())
			return false
		}
		return h.r.SegmentsDelivered == 60
	}
	f := func(seed int64, lossPct uint8, sack bool) bool { return check(seed, lossPct, sack) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// TestFastRetransmitSendsNewDataImmediately is the RFC 6582 regression
// test for the fast-retransmit send opportunity: the third dupack
// inflates cwnd to ssthresh+3, which can already admit new data. With
// ≈4 segments in flight a single loss yields exactly three dupacks —
// no fourth ack ever arrives to trigger a send — so without trySend at
// the fast retransmit, the permitted new segment stalls a full RTT
// until the recovery ack returns.
func TestFastRetransmitSendsNewDataImmediately(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.InitialCwnd = 4
	cfg.InitialSsthresh = 2 // congestion avoidance: cwnd stays ≈4
	type sendEvent struct {
		at  sim.Time
		seq int
		rtx bool
	}
	var sends []sendEvent
	h := newHarness(t, cfg, tcp.BulkApp{}, 10*sim.Millisecond)
	const lostSeq = 4 // first segment of the second flight
	dropped := false
	h.drop = func(p *packet.Packet) bool {
		if p.Kind != packet.Data {
			return false
		}
		sends = append(sends, sendEvent{h.e.Now(), p.Seq, p.Retransmit})
		if p.Seq == lostSeq && !dropped && !p.Retransmit {
			dropped = true
			return true
		}
		return false
	}
	h.s.Start()
	h.e.RunUntil(5 * sim.Second)
	if !dropped {
		t.Fatal("test setup: seq 20 was never sent")
	}
	if h.s.Stats.FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d, want 1 (Timeouts = %d)",
			h.s.Stats.FastRetransmits, h.s.Stats.Timeouts)
	}
	var rtxAt sim.Time = -1
	for _, s := range sends {
		if s.rtx && s.seq == lostSeq {
			rtxAt = s.at
			break
		}
	}
	if rtxAt < 0 {
		t.Fatal("lost segment was never fast-retransmitted")
	}
	// The inflated window (ssthresh+3 = 5 > 4 outstanding) permits one
	// new segment at the instant of the fast retransmit.
	for _, s := range sends {
		if !s.rtx && s.seq > lostSeq+3 && s.at == rtxAt {
			return
		}
	}
	t.Errorf("no new data sent at the fast-retransmit instant %v; the inflated window's send opportunity was missed", rtxAt)
}
