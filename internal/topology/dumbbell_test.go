package topology

import (
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

func TestSingleFlowSaturatesLink(t *testing.T) {
	n := MustNew(Config{Seed: 1, Bandwidth: 1000 * link.Kbps})
	n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	n.Run(60 * sim.Second)
	// One bulk flow should keep the link busy: ≥80% utilization after
	// slow start, and deliver roughly rate*time of data.
	if u := n.Utilization(); u < 0.8 {
		t.Errorf("utilization = %f, want ≥0.8", u)
	}
	got := n.Slicer.FlowTotal(0)
	want := 1000e3 / 8 * 60 // bytes at full rate
	if got < 0.7*want {
		t.Errorf("delivered %v bytes, want ≥70%% of %v", got, want)
	}
}

func TestTwoFlowsShareFairlyLongTerm(t *testing.T) {
	// A little RTT jitter avoids the classic droptail phase-locking of
	// two identical flows, and a large max window keeps both flows
	// probing via AIMD instead of one parking at the receiver-window
	// cap and never seeing a loss.
	tcpCfg := tcp.DefaultConfig()
	tcpCfg.MaxWindow = 10000
	tcpCfg.InitialSsthresh = 10000
	n := MustNew(Config{Seed: 1, Bandwidth: 1000 * link.Kbps, RTTJitter: 0.1, TCP: tcpCfg})
	n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	n.Run(120 * sim.Second)
	jfi := n.Slicer.TotalJFI(0, int(120/20))
	if jfi < 0.9 {
		t.Errorf("2-flow long-term JFI = %f, want ≥0.9", jfi)
	}
}

func TestManyFlowsHighLossAndTimeouts(t *testing.T) {
	// 60 flows on 200 Kbps: fair share ≈ 3.3 Kbps ≈ 0.17 pkt/RTT —
	// deep sub-packet regime. Expect heavy loss and timeouts.
	cfg := Config{Seed: 2, Bandwidth: 200 * link.Kbps}
	n := MustNew(cfg)
	for i := 0; i < 60; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*50*sim.Millisecond)
	}
	n.Run(200 * sim.Second)
	if lr := n.LossRate(); lr < 0.05 {
		t.Errorf("loss rate = %f, want ≥0.05 in sub-packet regime", lr)
	}
	to, rep := n.AggregateTimeouts()
	if to == 0 || rep == 0 {
		t.Errorf("timeouts=%d repetitive=%d, want both > 0", to, rep)
	}
	// Utilization stays high despite the chaos (paper §2.3: goodput
	// remains >90%; allow slack at this scale).
	if u := n.Utilization(); u < 0.85 {
		t.Errorf("utilization = %f, want ≥0.85", u)
	}
}

func TestSizedFlowCompletes(t *testing.T) {
	n := MustNew(Config{Seed: 3, Bandwidth: 1000 * link.Kbps})
	done := false
	app := &tcp.SizedApp{Total: 50, OnComplete: func() { done = true }}
	n.AddFlow(packet.PoolNone, app, sim.Second)
	n.Run(30 * sim.Second)
	if !done {
		t.Fatal("sized transfer did not complete")
	}
}

func TestAllQueueKindsRun(t *testing.T) {
	for _, k := range []QueueKind{DropTail, RED, SFQ, TAQ} {
		n := MustNew(Config{Seed: 4, Bandwidth: 400 * link.Kbps, Queue: k})
		for i := 0; i < 10; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
		}
		n.Run(40 * sim.Second)
		if u := n.Utilization(); u < 0.5 {
			t.Errorf("%s: utilization = %f, want ≥0.5", k, u)
		}
		if k == TAQ && n.Middlebox == nil {
			t.Error("TAQ scenario missing middlebox handle")
		}
	}
}

func TestUnknownQueueKind(t *testing.T) {
	if _, err := New(Config{Queue: "fifo9000"}); err == nil {
		t.Error("unknown queue kind accepted")
	}
}

func TestRTTJitterSpreadsRTTs(t *testing.T) {
	n := MustNew(Config{Seed: 5, RTTJitter: 0.5})
	a := n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	b := n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	c := n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	if a.RTT == b.RTT && b.RTT == c.RTT {
		t.Error("jittered RTTs all identical")
	}
	for _, f := range []*Flow{a, b, c} {
		if f.RTT < 100*sim.Millisecond || f.RTT > 300*sim.Millisecond {
			t.Errorf("RTT %v outside ±50%% of 200ms", f.RTT)
		}
	}
}

func TestCensusCountsPackets(t *testing.T) {
	n := MustNew(Config{Seed: 6, Bandwidth: 1000 * link.Kbps})
	n.EnableCensus(6, 200*sim.Millisecond)
	n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	n.Run(20 * sim.Second)
	if n.Census.Epochs() == 0 {
		t.Fatal("census recorded no epochs")
	}
	d := n.Census.Distribution()
	// A lone bulk flow at 1 Mbps (≈250 pkt/s, 50/epoch) should spend
	// nearly all epochs in the clamped top class.
	if d[6] < 0.8 {
		t.Errorf("top-class fraction = %v, want ≥0.8 (dist=%v)", d[6], d)
	}
}

func TestHangTrackerWiredToPools(t *testing.T) {
	n := MustNew(Config{Seed: 7, Bandwidth: 1000 * link.Kbps})
	n.AddFlow(7, tcp.BulkApp{}, 0)
	n.Run(10 * sim.Second)
	n.Hangs.Finish(n.Engine.Now())
	if n.Hangs.NumPools() != 1 {
		t.Fatalf("pools tracked = %d", n.Hangs.NumPools())
	}
	// A healthy lone flow should never hang for seconds.
	if h := n.Hangs.MaxHang(7); h > 2*sim.Second {
		t.Errorf("max hang = %v for uncontended flow", h)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		n := MustNew(Config{Seed: 42, Bandwidth: 300 * link.Kbps, RTTJitter: 0.3})
		for i := 0; i < 20; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
		}
		n.Run(60 * sim.Second)
		return n.QueueDrops, n.Slicer.MeanSliceJFI(0, 3)
	}
	d1, j1 := run()
	d2, j2 := run()
	if d1 != d2 || j1 != j2 {
		t.Errorf("same seed diverged: drops %d/%d JFI %v/%v", d1, d2, j1, j2)
	}
}

func TestFairSharePerFlow(t *testing.T) {
	n := MustNew(Config{Seed: 9, Bandwidth: 1000 * link.Kbps})
	if n.FairSharePerFlow() != 1000e3 {
		t.Error("empty network fair share should be full bandwidth")
	}
	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	}
	if fs := n.FairSharePerFlow(); fs != 250e3 {
		t.Errorf("fair share = %v, want 250k", fs)
	}
	if n.NumFlows() != 4 {
		t.Errorf("NumFlows = %d", n.NumFlows())
	}
	if n.Flow(0) == nil || n.Flow(99) != nil {
		t.Error("Flow lookup wrong")
	}
}

func TestTFRCFlowDelivers(t *testing.T) {
	n := MustNew(Config{Seed: 11, Bandwidth: 400 * link.Kbps})
	f := n.AddTFRCFlow(packet.PoolNone, 0)
	if f.TFRCSender == nil || f.TFRCReceiver == nil || f.Sender != nil {
		t.Fatal("TFRC flow endpoints wrong")
	}
	n.Run(60 * sim.Second)
	if n.Slicer.FlowTotal(f.ID) == 0 {
		t.Error("TFRC flow delivered nothing")
	}
	// A lone TFRC flow on 400 Kbps should reach a healthy fraction of
	// the link (rate-based, capped by 2×recv-rate).
	if got := n.Slicer.FlowTotal(f.ID); got < 0.3*400e3/8*60 {
		t.Errorf("TFRC delivered %v bytes of ~%v", got, 400e3/8*60)
	}
}

func TestMixedTCPAndTFRC(t *testing.T) {
	n := MustNew(Config{Seed: 12, Bandwidth: 400 * link.Kbps, RTTJitter: 0.2})
	n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	n.AddTFRCFlow(packet.PoolNone, 0)
	n.Run(120 * sim.Second)
	a, b := n.Slicer.FlowTotal(0), n.Slicer.FlowTotal(1)
	if a == 0 || b == 0 {
		t.Fatalf("starvation: tcp=%v tfrc=%v", a, b)
	}
	// TCP-friendliness: neither transport takes more than ~6x the
	// other over two minutes.
	if a > 6*b || b > 6*a {
		t.Errorf("gross unfairness between TCP (%v) and TFRC (%v)", a, b)
	}
}

func TestGoodputHighUnderContention(t *testing.T) {
	// §2.3: goodput stays above 90% even in the collapse regime.
	n := MustNew(Config{Seed: 14, Bandwidth: 200 * link.Kbps, RTTJitter: 0.25})
	for i := 0; i < 40; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
	}
	n.Run(200 * sim.Second)
	if g := n.Goodput(); g < 0.85 {
		t.Errorf("goodput = %.3f, want ≥ 0.85", g)
	}
	if g, u := n.Goodput(), n.Utilization(); g > u {
		t.Errorf("goodput %.3f exceeds utilization %.3f", g, u)
	}
}

func TestTwoWayObservationImprovesEpochs(t *testing.T) {
	run := func(twoWay bool) (sum float64, count int) {
		n := MustNew(Config{
			Seed: 15, Bandwidth: 600 * link.Kbps, Queue: TAQ,
			RTTJitter: 0.3, TwoWayObservation: twoWay,
		})
		for i := 0; i < 20; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, 0)
		}
		n.Run(60 * sim.Second)
		for i := 0; i < 20; i++ {
			f := n.Flow(packet.FlowID(i))
			epoch, ok := n.Middlebox.FlowEpoch(f.ID)
			if !ok {
				continue
			}
			// Relative error against the flow's true propagation RTT
			// (queueing adds some legitimate inflation).
			err := (epoch - f.RTT).Seconds() / f.RTT.Seconds()
			if err < 0 {
				err = -err
			}
			sum += err
			count++
		}
		return
	}
	oneErr, n1 := run(false)
	twoErr, n2 := run(true)
	if n1 == 0 || n2 == 0 {
		t.Fatal("no epochs sampled")
	}
	if twoErr/float64(n2) > oneErr/float64(n1)+0.1 {
		t.Errorf("two-way epoch error %.2f worse than one-way %.2f",
			twoErr/float64(n2), oneErr/float64(n1))
	}
}
