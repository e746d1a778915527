package tcp

import (
	"taq/internal/packet"
	"taq/internal/sim"
)

// maxSackBlocks bounds how many out-of-order segment indexes an ACK
// reports, mimicking the limited SACK option space.
const maxSackBlocks = 8

// Receiver is the TCP receiver half of a flow. It acknowledges every
// data packet immediately (the paper's receivers do not delay acks),
// caches out-of-order segments, and reports SACK information when
// configured.
type Receiver struct {
	run  sim.Runner
	cfg  Config
	flow packet.FlowID
	pool packet.PoolID
	out  func(*packet.Packet) // ack return path

	cumAck int
	// held flags the nHeld out-of-order segments cached above cumAck.
	// Its base is cumAck while anything is held and lags behind
	// otherwise: in-order arrivals do not touch it.
	held  seqRing[bool]
	nHeld int

	// Delayed-ack state (only used when cfg.DelayedAck is set).
	delPending bool
	delTimer   *sim.Timer
	delAckFn   func() // bound once in NewReceiver, like Sender's

	// Packets is where acks are drawn from; nil allocates each one
	// (see Sender.Packets).
	Packets *packet.Pool

	// OnDeliver is called with the number of segments newly delivered
	// in order and the current time; metrics collectors hang off it.
	OnDeliver func(n int)

	// Stats.
	SegmentsDelivered uint64 // in-order segments passed up
	DupSegments       uint64 // segments below cumAck received again
	AcksSent          uint64
}

// NewReceiver creates the receiver half of a flow. out transmits ACKs
// back toward the sender (the uncongested reverse path).
func NewReceiver(run sim.Runner, cfg Config, flow packet.FlowID, pool packet.PoolID, out func(*packet.Packet)) *Receiver {
	r := &Receiver{run: run, cfg: cfg, flow: flow, pool: pool, out: out}
	r.delAckFn = r.onDelAckTimeout
	return r
}

// newPacket draws a reverse-path packet from the receiver's pool.
func (r *Receiver) newPacket(kind packet.Kind, size int) *packet.Packet {
	p := r.Packets.Get()
	p.Flow, p.Pool, p.Kind = r.flow, r.pool, kind
	p.Size, p.Sent = size, r.run.Now()
	return p
}

// CumAck returns the next expected segment index.
func (r *Receiver) CumAck() int { return r.cumAck }

// Quiet reports whether no delayed ack is waiting on its timer, so that
// only a delivered packet can make the receiver act again.
func (r *Receiver) Quiet() bool { return !r.delPending }

// Deliver hands the receiver a packet that crossed the network.
func (r *Receiver) Deliver(p *packet.Packet) {
	switch p.Kind {
	case packet.Syn:
		r.out(r.newPacket(packet.SynAck, r.cfg.SynSize))
	case packet.Data:
		r.onData(p)
	}
}

func (r *Receiver) onData(p *packet.Packet) {
	newly := 0
	switch {
	case p.Seq < r.cumAck || r.nHeld > 0 && r.held.get(p.Seq):
		r.DupSegments++
	case p.Seq == r.cumAck && r.nHeld == 0:
		r.cumAck++
		newly = 1
	default:
		r.held.advance(r.cumAck)
		*r.held.slot(p.Seq) = true
		r.nHeld++
		// Deliver the run of held segments that now starts at cumAck.
		for r.held.get(r.cumAck + newly) {
			newly++
		}
		r.cumAck += newly
		r.nHeld -= newly
		r.held.advance(r.cumAck)
	}
	r.SegmentsDelivered += uint64(newly)
	if newly > 0 && r.OnDeliver != nil {
		r.OnDeliver(newly)
	}
	// Delayed acks (RFC 1122-style): hold the ack for one in-order
	// segment, release on the second, on any out-of-order arrival, or
	// when the delay timer fires.
	if r.cfg.DelayedAck && newly > 0 && r.nHeld == 0 && !r.delPending {
		r.delPending = true
		timeout := r.cfg.DelAckTimeout
		if timeout <= 0 {
			timeout = 100 * sim.Millisecond
		}
		// The previous handle is always fired or canceled here, so
		// Reschedule reuses its allocation.
		r.delTimer = sim.Reschedule(r.run, r.delTimer, timeout, r.delAckFn)
		return
	}
	r.delPending = false
	r.delTimer.Cancel()
	r.sendAck()
}

// onDelAckTimeout releases a held ack when the delay timer fires.
func (r *Receiver) onDelAckTimeout() {
	if r.delPending {
		r.delPending = false
		r.sendAck()
	}
}

func (r *Receiver) sendAck() {
	ack := r.newPacket(packet.Ack, r.cfg.AckSize)
	ack.CumAck = r.cumAck
	if r.cfg.SACK && r.nHeld > 0 {
		// The lowest held segments in ascending order; every held one
		// lies above cumAck, so the count bounds the walk.
		n := min(r.nHeld, maxSackBlocks)
		if cap(ack.Sacked) < n {
			ack.Sacked = make([]int, 0, maxSackBlocks)
		}
		for seq := r.cumAck + 1; len(ack.Sacked) < n; seq++ {
			if r.held.get(seq) {
				ack.Sacked = append(ack.Sacked, seq)
			}
		}
	}
	r.AcksSent++
	r.out(ack)
}
