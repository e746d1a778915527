// Package packet defines the on-the-wire unit exchanged by the simulated
// TCP endpoints and inspected by queue disciplines and the TAQ
// middlebox. Sequence numbers are in MSS-sized segments, matching the
// paper's packet-granularity analysis (§2.3 uses 500-byte on-the-wire
// packets).
package packet

import (
	"fmt"

	"taq/internal/sim"
)

// FlowID uniquely identifies a TCP flow within a scenario.
type FlowID int32

// PoolID identifies the flow pool (application session / user) a flow
// belongs to. Admission control in §4.3 operates at pool granularity.
// PoolNone marks flows outside any pool.
type PoolID int32

// PoolNone is the PoolID of flows that do not belong to a pool.
const PoolNone PoolID = -1

// Kind discriminates packet roles on the wire.
type Kind uint8

const (
	// Data carries one MSS-sized segment.
	Data Kind = iota
	// Ack is a pure cumulative acknowledgment (possibly with SACK info).
	Ack
	// Syn opens a connection.
	Syn
	// SynAck acknowledges a Syn.
	SynAck
	// Fin closes a connection (informational; flows end via app state).
	Fin
	// Feedback is a TFRC receiver report (loss-event rate and receive
	// rate), used by the internal/tfrc baseline.
	Feedback
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Syn:
		return "SYN"
	case SynAck:
		return "SYNACK"
	case Fin:
		return "FIN"
	case Feedback:
		return "FEEDBACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Packet is a simulated packet. Every transmission is its own Packet
// (allocated, or drawn from the sender's Pool); retransmissions are new
// Packet values with Retransmit set.
type Packet struct {
	Flow FlowID
	Pool PoolID
	Kind Kind

	// Seq is the segment index for Data packets (0-based). For Ack
	// packets it is unused.
	Seq int

	// CumAck is, on Ack packets, the next expected segment index
	// (i.e. all segments below CumAck have been received).
	CumAck int

	// Sacked lists out-of-order segment indexes the receiver holds at
	// or above CumAck. Only populated when the flow negotiated SACK,
	// and capped to a few blocks like a real SACK option.
	Sacked []int

	// Size is the on-the-wire size in bytes.
	Size int

	// Retransmit marks a Data packet carrying a segment that was
	// transmitted before, or a retried Syn.
	Retransmit bool

	// Sent is when the packet entered the network (set by the sender),
	// used for RTT sampling and queue-delay accounting.
	Sent sim.Time

	// Enqueued is when the packet entered the bottleneck queue (set by
	// the queue discipline), for queue-delay instrumentation.
	Enqueued sim.Time

	// TFRC feedback fields (Kind == Feedback only).

	// EchoSent echoes the send timestamp of the most recent data
	// packet, for sender-side RTT sampling.
	EchoSent sim.Time
	// FbHold is how long the receiver held that timestamp before
	// reporting, subtracted from the RTT sample.
	FbHold sim.Time
	// FbLossRate is the receiver's loss-event rate estimate.
	FbLossRate float64
	// FbRecvRate is the receiver's measured receive rate (bytes/s).
	FbRecvRate float64
}

// String renders a compact description for debugging.
func (p *Packet) String() string {
	r := ""
	if p.Retransmit {
		r = " rtx"
	}
	switch p.Kind {
	case Ack:
		return fmt.Sprintf("flow %d %s cum=%d", p.Flow, p.Kind, p.CumAck)
	default:
		return fmt.Sprintf("flow %d %s seq=%d%s", p.Flow, p.Kind, p.Seq, r)
	}
}

// Pool is a free list of packets for one single-threaded owner (one
// simulated network). Endpoints draw from it through Get, which on a
// nil *Pool allocates: endpoints built without a pool (the real-time
// testbed, benchmarks driving an endpoint alone) need no second code
// path, and their packets are left to the garbage collector.
//
// Whoever holds a packet last owns it; Put is only for an owner that
// knows no other reference survives.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet. A recycled one keeps the backing array
// of its Sacked list (at length zero), so a steady stream of SACK acks
// through one pool stops allocating.
func (pl *Pool) Get() *Packet {
	if pl == nil || len(pl.free) == 0 {
		return &Packet{}
	}
	last := len(pl.free) - 1
	p := pl.free[last]
	pl.free[last] = nil
	pl.free = pl.free[:last]
	*p = Packet{Sacked: p.Sacked[:0]}
	return p
}

// Put hands p back for reuse. The caller must not touch p afterwards.
func (pl *Pool) Put(p *Packet) {
	pl.free = append(pl.free, p)
}
