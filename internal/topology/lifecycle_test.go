// The flow lifecycle's tests drive the network the way its owners do —
// workload sessions, on the simulator and on the wall-clock engine — so
// they sit in the external test package, beside the parity test.
package topology_test

import (
	"testing"
	"time"

	"taq/internal/core"
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// lifecycleLog is a ten-minute access log busy enough to keep a few
// hundred Kbps in the small-packet regime: spurious retransmissions,
// timeouts and SYN losses all happen.
func lifecycleLog() []trace.Record {
	gen := trace.DefaultGenConfig()
	gen.Seed = 23
	gen.Duration = 600 * sim.Second
	gen.Clients = lifecycleClients
	gen.RequestsPerClientPerMin = 1.2
	gen.MaxSize = 128 << 10
	return trace.Generate(gen)
}

const lifecycleClients = 40

// replayOutcome is everything a replay lets its caller see: the
// network's totals, compared with ==, and when each object ended.
type replayOutcome struct {
	replayTotals
	ends []sim.Time
}

type replayTotals struct {
	arrivals, drops, external uint64
	timeouts, repetitive      uint64
	processed                 uint64
	jfi, goodput              float64
	flows, done, failed       int
}

// replay runs the log through per-client sessions on cfg and a drain,
// with releases held back or not, and returns the network with what it
// showed.
func replay(t *testing.T, cfg topology.Config, recs []trace.Record, hold bool) (*topology.Network, replayOutcome) {
	t.Helper()
	net, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hold {
		net.HoldReleases()
	}
	sessions := workload.Replay(net, recs, 4, workload.ReplayTimed)
	net.Run(1500 * sim.Second)

	var o replayOutcome
	o.arrivals, o.drops, o.external = net.QueueArrivals, net.QueueDrops, net.ExternalDrops
	o.timeouts, o.repetitive = net.AggregateTimeouts()
	o.processed = net.Engine.Processed
	o.jfi = net.Slicer.MeanSliceJFI(0, int(net.Engine.Now()/net.Slicer.Width()))
	o.goodput = net.Goodput()
	o.flows = net.NumFlows()
	for c := 0; c < lifecycleClients; c++ {
		s, ok := sessions[c]
		if !ok {
			continue
		}
		if s.Outstanding() != 0 {
			t.Fatalf("client %d has %d objects outstanding after the drain", c, s.Outstanding())
		}
		for _, r := range s.Results {
			o.ends = append(o.ends, r.End)
			if r.Done {
				o.done++
			} else {
				o.failed++
			}
		}
	}
	return net, o
}

type lifecycleRow struct {
	name string
	cfg  topology.Config
}

func lifecycleConfigs() []lifecycleRow {
	base := func() topology.Config {
		return topology.Config{Seed: 5, Bandwidth: 300 * link.Kbps, RTTJitter: 0.25, TCP: tcp.DefaultConfig()}
	}
	lossy := base()
	lossy.ExternalLoss = 0.03

	twoWay := base()
	twoWay.Queue = topology.TAQ
	twoWay.TwoWayObservation = true
	mb := core.DefaultConfig(twoWay.Bandwidth, 0)
	mb.AdmissionControl = true
	twoWay.TAQ = &mb
	twoWay.TCP.MaxSynRetries = -1
	twoWay.TCP.MaxSynTimeout = 4 * sim.Second

	delack := base()
	delack.TCP.DelayedAck = true
	delack.TCP.SACK = true

	giveUp := base()
	giveUp.Bandwidth = 150 * link.Kbps
	giveUp.BufferPackets = 4
	giveUp.TCP.MaxSynRetries = 0

	all := base()
	all.Queue = topology.TAQ
	all.TwoWayObservation = true
	all.ExternalLoss = 0.02
	all.TCP.DelayedAck = true
	all.TCP.MaxSynRetries = 0

	return []lifecycleRow{
		{"external-loss", lossy},
		{"two-way-taq-admission", twoWay},
		{"delayed-ack-sack", delack},
		{"syn-gives-up", giveUp},
		{"all-at-once", all},
	}
}

// TestReleaseIsInvisible replays one log twice, the second time with
// every released flow kept in the network as before Release existed.
// Nothing a caller can read may differ: a flow is forgotten only once it
// can cause no further event, so the random draws of ExternalLoss and
// the access jitter, the delay sampler's phase and what the middlebox
// observes on the reverse path all stay where they were.
func TestReleaseIsInvisible(t *testing.T) {
	recs := lifecycleLog()
	for _, row := range lifecycleConfigs() {
		t.Run(row.name, func(t *testing.T) {
			_, got := replay(t, row.cfg, recs, false)
			_, want := replay(t, row.cfg, recs, true)

			if len(got.ends) != len(want.ends) {
				t.Fatalf("%d objects with releases, %d without", len(got.ends), len(want.ends))
			}
			for i := range want.ends {
				if got.ends[i] != want.ends[i] {
					t.Fatalf("object %d ended at %v with releases, %v without", i, got.ends[i], want.ends[i])
				}
			}
			if got.replayTotals != want.replayTotals {
				t.Errorf("with releases    %+v\nwithout releases %+v", got.replayTotals, want.replayTotals)
			}

			// The rows must reach what they are there for.
			if want.timeouts == 0 || want.drops == 0 {
				t.Errorf("%d timeouts, %d drops: the log does not congest this network", want.timeouts, want.drops)
			}
			if row.cfg.ExternalLoss > 0 && want.external == 0 {
				t.Error("ExternalLoss dropped nothing")
			}
			if row.cfg.TCP.MaxSynRetries == 0 && want.failed == 0 {
				t.Error("no handshake gave up: the OnFail path did not run")
			}
		})
	}
}

// TestReleaseWaitsForQuiescence checks the condition Release waits for
// from both sides. No packet ever reaches the bottleneck's output or its
// drop hook after its flow was forgotten (forgetting on completion alone
// fails here: the last ack overtakes retransmissions still queued). And
// the wait ends: once the log has drained every flow was released, and
// with releases held back every flow's in-network count is back to zero —
// each packet counted in was counted out exactly once.
func TestReleaseWaitsForQuiescence(t *testing.T) {
	recs := lifecycleLog()
	for _, row := range lifecycleConfigs() {
		t.Run(row.name, func(t *testing.T) {
			net, o := replay(t, row.cfg, recs, false)
			if n := net.Strays(); n != 0 {
				t.Errorf("%d packets reached the bottleneck after their flow was released", n)
			}
			if o.flows != o.done+o.failed {
				t.Errorf("%d flows for %d completed + %d failed objects", o.flows, o.done, o.failed)
			}
			if net.LiveFlows() != 0 {
				t.Errorf("%d flows not released after the drain", net.LiveFlows())
			}

			held, _ := replay(t, row.cfg, recs, true)
			if held.LiveFlows() != o.flows {
				t.Fatalf("the held run kept %d of %d flows", held.LiveFlows(), o.flows)
			}
			if n := held.InNetwork(); n != 0 {
				t.Errorf("a drained flow still counts %d packets in the network", n)
			}
		})
	}
}

// TestReleaseMidTransfer releases a flow whose transfer has only begun —
// an owner walking away — under delayed acks and congestion: the flow
// spends its life with a retransmission or delayed-ack timer armed and
// packets queued, so it must stay until the transfer has run its course,
// and go then.
func TestReleaseMidTransfer(t *testing.T) {
	cfg := topology.Config{Seed: 9, Bandwidth: 200 * link.Kbps, RTTJitter: 0.25, TCP: tcp.DefaultConfig()}
	cfg.TCP.DelayedAck = true
	net := topology.MustNew(cfg)
	workload.AddBulkFlows(net, 8, 50*sim.Millisecond)
	app := &tcp.SizedApp{Total: 120}
	f := net.AddFlow(0, app, sim.Second)
	net.Run(2 * sim.Second)
	if !f.Sender.Established() || app.Done() {
		t.Fatalf("at 2 s: established %v, done %v; want a transfer under way", f.Sender.Established(), app.Done())
	}
	net.Release(f)
	for !app.Done() {
		if net.Engine.Now() > 600*sim.Second {
			t.Fatal("the transfer did not finish")
		}
		if net.Flow(f.ID) != f {
			t.Fatalf("flow forgotten at %v with its transfer at segment %d of %d", net.Engine.Now(), f.Sender.CumAck(), app.Total)
		}
		net.Run(net.Engine.Now() + 100*sim.Millisecond)
	}
	if f.Sender.Stats.Timeouts == 0 {
		t.Error("the transfer took no timeout: the retransmission timer was never what kept the flow")
	}
	net.Run(net.Engine.Now() + 5*sim.Second)
	if net.Flow(f.ID) != nil {
		t.Error("flow still in the network 5 s after its transfer finished")
	}
	if n := net.Strays(); n != 0 {
		t.Errorf("%d packets reached the bottleneck after their flow was released", n)
	}
	if timeouts, _ := net.AggregateTimeouts(); timeouts < f.Sender.Stats.Timeouts {
		t.Errorf("AggregateTimeouts = %d lost the released flow's %d", timeouts, f.Sender.Stats.Timeouts)
	}
}

// TestReleaseWaitsForDelayedAck covers the one state in which only the
// receiver keeps a flow: its sender was stopped, nothing is in the
// network, and an ack is held back on the delayed-ack timer. That ack is
// still to cross the network, so the flow stays until it has.
func TestReleaseWaitsForDelayedAck(t *testing.T) {
	cfg := topology.Config{Seed: 3, TCP: tcp.DefaultConfig()}
	cfg.TCP.DelayedAck = true
	net := topology.MustNew(cfg)
	f := net.AddFlow(0, &tcp.SizedApp{Total: 1}, 0)
	for f.Receiver.Quiet() {
		if net.Engine.Now() > 10*sim.Second {
			t.Fatal("the receiver never held an ack back")
		}
		net.Run(net.Engine.Now() + sim.Millisecond)
	}
	f.Sender.Stop()
	net.Release(f)
	if net.InNetwork() != 0 || !f.Sender.Quiet() {
		t.Fatalf("%d packets in the network, sender quiet %v; want the receiver alone to be busy", net.InNetwork(), f.Sender.Quiet())
	}
	if net.Flow(f.ID) != f {
		t.Fatal("flow forgotten with a delayed ack pending")
	}
	net.Run(net.Engine.Now() + sim.Second)
	if net.Flow(f.ID) != nil || f.Receiver.AcksSent != 1 {
		t.Errorf("after the delayed ack (%d sent) the flow is still in the network", f.Receiver.AcksSent)
	}
}

// TestShortFlowsReleasedOnEmu runs short transfers against bulk
// background on the wall-clock engine, whose timer handles never carry a
// heap index: quiescence is read from the endpoints, so the short flows
// leave the network there too and the bulk flows stay.
func TestShortFlowsReleasedOnEmu(t *testing.T) {
	const bulk, short = 4, 6
	tb := emu.NewTestbed(emu.TestbedConfig{
		Config:  topology.Config{Bandwidth: 600 * link.Kbps, Queue: topology.TAQ, TwoWayObservation: true},
		Speedup: 100,
	})
	defer tb.Stop()
	var results []*workload.ShortFlowResult
	tb.Snapshot(func() {
		now := tb.Net.Runner.Now()
		workload.AddBulkFlows(tb.Net, bulk, 10*sim.Millisecond)
		for i := 0; i < short; i++ {
			results = append(results, workload.AddShortFlow(tb.Net, 3+i, now+sim.Time(i)*sim.Second))
		}
	})
	released := func() bool { return tb.Net.LiveFlows() == bulk }
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		ok := false
		tb.Snapshot(func() { ok = released() })
		if ok {
			break
		}
		tb.RunFor(5 * sim.Second)
	}
	tb.Snapshot(func() {
		for i, r := range results {
			if !r.Done {
				t.Errorf("short flow %d did not complete", i)
			}
		}
		if !released() {
			t.Errorf("%d flows live, want the %d bulk flows", tb.Net.LiveFlows(), bulk)
		}
		if tb.Net.NumFlows() != bulk+short {
			t.Errorf("NumFlows = %d, want %d added", tb.Net.NumFlows(), bulk+short)
		}
		if n := tb.Net.Strays(); n != 0 {
			t.Errorf("%d packets reached the bottleneck after their flow was released", n)
		}
	})
}
