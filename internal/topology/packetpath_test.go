package topology

import (
	"math"
	"runtime"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// addBulkFlows starts n bulk flows 50 ms apart, the benchmark's
// dumbbell stagger.
func addBulkFlows(net *Network, n int) {
	for i := 0; i < n; i++ {
		net.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*50*sim.Millisecond)
	}
}

// TestDumbbellPacketPathAllocatesNothing runs the benchmark's dumbbell
// (60 bulk flows on 600 Kbps, RTT jitter 0.25) past its warm-up and
// then counts heap allocations per packet offered to the bottleneck.
// Events carry the packet, timer callbacks are bound once, the RTO
// re-arms one handle per sender, and every packet — delivered, dropped
// at the queue or lost beyond it — goes back to the network's pool, so
// the path allocates nothing once the pool and the heaps have grown to
// their peak. The bound leaves room for the slicer's and the delay
// sample's amortized growth; one allocation per queue drop would read
// 0.15-0.25 here.
func TestDumbbellPacketPathAllocatesNothing(t *testing.T) {
	for _, q := range []QueueKind{DropTail, TAQ} {
		t.Run(string(q), func(t *testing.T) {
			n := MustNew(Config{Seed: 1, Bandwidth: 600 * link.Kbps, RTTJitter: 0.25, Queue: q})
			addBulkFlows(n, 60)
			n.Run(300 * sim.Second)

			var before, after runtime.MemStats
			offered, drops := n.QueueArrivals, n.QueueDrops
			runtime.ReadMemStats(&before)
			n.Run(600 * sim.Second)
			runtime.ReadMemStats(&after)

			pkts := n.QueueArrivals - offered
			if pkts < 20000 || n.QueueDrops-drops < pkts/20 {
				t.Fatalf("%d packets offered and %d dropped in 300 simulated seconds: not the lossy regime the test is about",
					pkts, n.QueueDrops-drops)
			}
			perPkt := float64(after.Mallocs-before.Mallocs) / float64(pkts)
			if perPkt > 0.01 {
				t.Fatalf("%.4f allocations per packet offered over %d packets, want <= 0.01", perPkt, pkts)
			}
			t.Logf("%.4f allocations per packet offered over %d packets (%d dropped)", perPkt, pkts, n.QueueDrops-drops)
		})
	}
}

// TestFourEventsPerDeliveredPacket pins the dumbbell's event budget: a
// data packet costs its access delay, its serialization, its forward
// path and its ack's return path — four events. The bottleneck link has
// no propagation delay of its own, so it hands each packet on inside
// its transmit-done event. The run is lossless (the buffer holds every
// window at once) and times nothing out, so no retransmission or RTO
// event dilutes the count.
func TestFourEventsPerDeliveredPacket(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.MaxWindow = 8
	const flows = 8
	n := MustNew(Config{Seed: 1, Bandwidth: 600 * link.Kbps, RTTJitter: 0.25,
		BufferPackets: 2 * flows * int(cfg.MaxWindow), TCP: cfg})
	addBulkFlows(n, flows)
	n.Run(20 * sim.Second)

	events, sent := n.Engine.Processed, n.Link.SentPackets
	n.Run(120 * sim.Second)
	events, sent = n.Engine.Processed-events, n.Link.SentPackets-sent

	if timeouts, _ := n.AggregateTimeouts(); n.QueueDrops != 0 || timeouts != 0 {
		t.Fatalf("%d drops and %d timeouts: the run is meant to be lossless", n.QueueDrops, timeouts)
	}
	if sent < 10000 {
		t.Fatalf("only %d packets crossed the bottleneck in 100 simulated seconds", sent)
	}
	perPkt := float64(events) / float64(sent)
	if math.Abs(perPkt-4) > 0.04 {
		t.Fatalf("%.4f events per delivered packet (%d events, %d packets), want 4 ± 1 %%", perPkt, events, sent)
	}
	t.Logf("%.4f events per delivered packet over %d packets", perPkt, sent)
}
