package tcp

import (
	"slices"
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

// refReceiver is the map-based statement of what Receiver must do with
// a data segment; FuzzReceiverReassembly compares the two packet by
// packet.
type refReceiver struct {
	sack              bool
	cumAck            int
	held              map[int]bool
	delivered, dupSeg uint64
}

// onData takes one arrival and returns the SACK list of the ack it
// causes.
func (m *refReceiver) onData(seq int) []int {
	if seq < m.cumAck || m.held[seq] {
		m.dupSeg++
	} else {
		m.held[seq] = true
		for m.held[m.cumAck] {
			delete(m.held, m.cumAck)
			m.cumAck++
			m.delivered++
		}
	}
	if !m.sack {
		return nil
	}
	var blocks []int
	for seq := range m.held {
		blocks = append(blocks, seq)
	}
	slices.Sort(blocks)
	if len(blocks) > maxSackBlocks {
		blocks = blocks[:maxSackBlocks]
	}
	return blocks
}

// FuzzReceiverReassembly lets a byte string pick the arrival order of
// one receiver's segments: each byte is an offset from the current
// cumulative ack, from four segments below it (duplicates) to 27 above
// (gaps), and a byte with the top bit set lands 32 times further out,
// past the ring's first capacities. The seeds are the files under
// testdata/fuzz/FuzzReceiverReassembly, named for what they exercise.
func FuzzReceiverReassembly(f *testing.F) {
	run := sim.NewEngine(1) // only read for the ack's timestamp
	f.Fuzz(func(t *testing.T, arrivals []byte) {
		// The reference sorts its whole cache per arrival; keep one
		// input's cost bounded.
		arrivals = arrivals[:min(len(arrivals), 256)]
		for _, sack := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.SACK = sack
			pool := &packet.Pool{}
			var ackCum int
			var ackSacked []int
			r := NewReceiver(run, cfg, 1, packet.PoolNone, func(p *packet.Packet) {
				ackCum, ackSacked = p.CumAck, append(ackSacked[:0], p.Sacked...)
				pool.Put(p)
			})
			r.Packets = pool
			ref := &refReceiver{sack: sack, held: map[int]bool{}}
			for i, b := range arrivals {
				off := int(b&0x1f) - 4
				if b&0x80 != 0 {
					off *= 32
				}
				seq := max(ref.cumAck+off, 0)
				want := ref.onData(seq)
				r.Deliver(&packet.Packet{Kind: packet.Data, Seq: seq, Size: cfg.MSS})
				if r.CumAck() != ref.cumAck || ackCum != ref.cumAck ||
					r.SegmentsDelivered != ref.delivered || r.DupSegments != ref.dupSeg ||
					!slices.Equal(ackSacked, want) {
					t.Fatalf("sack=%v arrival %d (seq %d): cumAck %d (ack %d) delivered %d dups %d sacked %v; reference cumAck %d delivered %d dups %d sacked %v",
						sack, i, seq, r.CumAck(), ackCum, r.SegmentsDelivered, r.DupSegments, ackSacked,
						ref.cumAck, ref.delivered, ref.dupSeg, want)
				}
			}
		}
	})
}

// endpointPair wires a sender and a receiver back to back through two
// fixed-size queues, every packet drawn from and returned to one pool.
type endpointPair struct {
	s        *Sender
	r        *Receiver
	pool     packet.Pool
	fwd, rev pktQueue
	dropSeq  int // data segments with this Seq are lost; -1 for none
	sackAcks int // acks that carried a SACK list
	stalled  bool
}

type pktQueue struct {
	buf        [1024]*packet.Packet
	head, tail int
}

func (q *pktQueue) push(p *packet.Packet) { q.buf[q.tail%len(q.buf)] = p; q.tail++ }
func (q *pktQueue) pop() *packet.Packet   { p := q.buf[q.head%len(q.buf)]; q.head++; return p }
func (q *pktQueue) empty() bool           { return q.head == q.tail }

func newEndpointPair(cfg Config) *endpointPair {
	e := sim.NewEngine(1)
	ep := &endpointPair{dropSeq: -1}
	ep.r = NewReceiver(e, cfg, 1, packet.PoolNone, ep.rev.push)
	ep.s = NewSender(e, cfg, 1, packet.PoolNone, BulkApp{}, ep.fwd.push)
	ep.s.Packets, ep.r.Packets = &ep.pool, &ep.pool
	ep.s.Start()
	ep.roundTrip() // SYN, SYN-ACK
	return ep
}

// roundTrip carries one forward packet to the receiver and every ack
// that causes back to the sender.
func (ep *endpointPair) roundTrip() {
	if ep.fwd.empty() {
		ep.stalled = true
		return
	}
	p := ep.fwd.pop()
	if p.Kind != packet.Data || p.Seq != ep.dropSeq {
		ep.r.Deliver(p)
	}
	ep.pool.Put(p)
	for !ep.rev.empty() {
		ack := ep.rev.pop()
		if len(ack.Sacked) > 0 {
			ep.sackAcks++
		}
		ep.s.Deliver(ack)
		ep.pool.Put(ack)
	}
}

func TestEndpointsSteadyStateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow, cfg.InitialSsthresh = 256, 256

	t.Run("in-order", func(t *testing.T) {
		ep := newEndpointPair(cfg)
		for i := 0; i < 2000; i++ { // slow start to MaxWindow: rings and pool at full size
			ep.roundTrip()
		}
		if allocs := testing.AllocsPerRun(1000, ep.roundTrip); allocs != 0 || ep.stalled {
			t.Errorf("%v allocs per data→ack round trip (stalled=%v), want 0", allocs, ep.stalled)
		}
		if ep.r.held.buf != nil {
			t.Errorf("in-order delivery allocated the receiver's ring")
		}
	})

	t.Run("sack-hole-held", func(t *testing.T) {
		cfg := cfg
		cfg.SACK = true
		ep := newEndpointPair(cfg)
		for i := 0; i < 2000; i++ {
			ep.roundTrip()
		}
		// A first loss episode grows the receiver's ring to a window's
		// worth of held segments; the fast retransmit repairs it.
		ep.dropSeq = ep.s.highTx
		for ep.r.nHeld == 0 && !ep.stalled {
			ep.roundTrip()
		}
		ep.dropSeq = -1
		for i := 0; i < 2000; i++ {
			ep.roundTrip()
		}
		if ep.r.nHeld != 0 || ep.s.nSacked != 0 || ep.s.Stats.FastRetransmits != 1 {
			t.Fatalf("warm-up episode not repaired: held=%d sacked=%d fast retransmits=%d",
				ep.r.nHeld, ep.s.nSacked, ep.s.Stats.FastRetransmits)
		}
		// The measured episode: the hole stays open (its retransmissions
		// are lost too) while the half window in flight at the loss
		// drains, each arrival answered by a SACK-carrying duplicate ack.
		ep.dropSeq = ep.s.highTx
		for ep.r.nHeld == 0 && !ep.stalled {
			ep.roundTrip()
		}
		before := ep.sackAcks
		if allocs := testing.AllocsPerRun(100, ep.roundTrip); allocs != 0 || ep.stalled {
			t.Errorf("%v allocs per data→ack round trip with a hole held (stalled=%v), want 0", allocs, ep.stalled)
		}
		if ep.r.nHeld == 0 || ep.sackAcks-before < 100 || ep.s.nSacked == 0 {
			t.Errorf("hole not held through the measurement: held=%d sacked=%d SACK acks=%d",
				ep.r.nHeld, ep.s.nSacked, ep.sackAcks-before)
		}
	})
}
