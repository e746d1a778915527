package topology

import (
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// Values no live packet carries: the onPut hook stamps them on every
// packet the topology returns to the pool, and they stay until Get
// hands the packet out again, so anyone still holding a returned packet
// sees them.
const (
	poisonKind = packet.Kind(0xEE)
	poisonFlow = packet.FlowID(-0x7A0)
)

// TestReturnedPacketsAreNeverSeenAgain checks the ownership rule the
// pool rests on — a packet is returned only after its endpoint's
// Deliver, and nothing holds it past that — at every place a packet is
// handed on: the bottleneck queue, drop hooks, the middlebox's
// reverse-path observation and both endpoints.
func TestReturnedPacketsAreNeverSeenAgain(t *testing.T) {
	sack := tcp.DefaultConfig()
	sack.SACK = true
	cases := []struct {
		name string
		cfg  Config
	}{
		{"droptail", Config{Queue: DropTail}},
		{"taq", Config{Queue: TAQ}},
		{"taq-twoway", Config{Queue: TAQ, TwoWayObservation: true}},
		{"sack", Config{Queue: DropTail, TCP: sack}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Bandwidth, cfg.RTTJitter = 1, 600*link.Kbps, 0.25
			n := MustNew(cfg)

			stale := map[string]int{}
			check := func(where string, p *packet.Packet) {
				if p.Kind == poisonKind || p.Flow == poisonFlow {
					stale[where]++
				}
			}
			returned, distinct := 0, map[*packet.Packet]bool{}
			n.onPut = func(p *packet.Packet) {
				check("the pool, a second time,", p)
				p.Kind, p.Flow = poisonKind, poisonFlow
				returned++
				distinct[p] = true
			}
			enqueue := n.toQueue
			n.toQueue = func(arg any) {
				check("Link.Enqueue", arg.(*packet.Packet))
				enqueue(arg)
			}
			n.Link.Discipline().AddDropHook(func(p *packet.Packet) { check("drop hook", p) })
			for i := 0; i < 60; i++ {
				f := n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*50*sim.Millisecond)
				toReceiver, toSender, midpoint := f.toReceiver, f.toSender, f.revMidpoint
				f.toReceiver = func(p *packet.Packet) {
					check("Receiver.Deliver", p)
					toReceiver(p)
				}
				f.toSender = func(p *packet.Packet) {
					check("Sender.Deliver", p)
					toSender(p)
				}
				if midpoint != nil {
					f.revMidpoint = func(arg any) {
						check("ObserveReverse", arg.(*packet.Packet))
						midpoint(arg)
					}
				}
			}
			n.Run(100 * sim.Second)

			for where, count := range stale {
				t.Errorf("%s saw %d packets that had already been returned to the pool", where, count)
			}
			if tc.cfg.TwoWayObservation && n.flows[0].revMidpoint == nil {
				t.Error("two-way observation is on but acks bypass the middlebox")
			}

			// The run must have exercised the rule: packets went back, and
			// went round again (every queue drop takes one out of the
			// cycle for good, so the distinct count grows with the drops).
			if len(distinct) == 0 || returned < 2*len(distinct) {
				t.Fatalf("%d returns of %d distinct packets: the pool was not recycling", returned, len(distinct))
			}
		})
	}
}

// TestTFRCPacketsStayOutOfThePool: TFRC endpoints allocate their own
// packets, so the topology must not recycle them.
func TestTFRCPacketsStayOutOfThePool(t *testing.T) {
	n := MustNew(Config{Seed: 1, Bandwidth: 600 * link.Kbps})
	n.onPut = func(p *packet.Packet) { t.Errorf("a %v packet of a TFRC flow was returned to the pool", p.Kind) }
	for i := 0; i < 4; i++ {
		n.AddTFRCFlow(packet.PoolNone, 0)
	}
	n.Run(30 * sim.Second)
	if n.Link.SentPackets == 0 {
		t.Fatal("no TFRC traffic crossed the bottleneck")
	}
}
