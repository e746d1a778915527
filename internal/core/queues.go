package core

import (
	"taq/internal/packet"
	"taq/internal/sim"
)

// Class identifies which of TAQ's five queues a packet was assigned to
// (§4.2).
type Class uint8

const (
	// ClassRecovery holds retransmitted packets, served at Level 1
	// with strict priority ordered by flow silence length.
	ClassRecovery Class = iota
	// ClassNewFlow holds packets of flows that just began (slow
	// start), Level 2, capacity-limited.
	ClassNewFlow
	// ClassOverPenalized holds packets of flows with multiple recent
	// drops, Level 2.
	ClassOverPenalized
	// ClassBelowFair holds packets of flows under their fair share,
	// Level 2.
	ClassBelowFair
	// ClassAboveFair holds packets of flows over their fair share,
	// Level 3 (lowest priority).
	ClassAboveFair

	numClasses = int(ClassAboveFair) + 1
)

// enumLabel is one row of an enum's label table: name is what String
// prints (trace sinks, census tables), label the lowercase form used as
// the Stats.Fields suffix and the metric label value — which names the
// Prometheus series, so it must not drift.
type enumLabel struct{ name, label string }

// classLabels is the one label table for Class.
var classLabels = [numClasses]enumLabel{
	ClassRecovery:      {"Recovery", "recovery"},
	ClassNewFlow:       {"NewFlow", "newflow"},
	ClassOverPenalized: {"OverPenalized", "overpenalized"},
	ClassBelowFair:     {"BelowFairShare", "belowfair"},
	ClassAboveFair:     {"AboveFairShare", "abovefair"},
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) >= numClasses {
		return "Unknown"
	}
	return classLabels[c].name
}

// ClassLabels returns the class label values in Class order, matching
// Stats.Fields' per-class suffixes.
func ClassLabels() []string { return labelColumn(classLabels[:]) }

// labelColumn returns a label table's label column, in enum order.
func labelColumn(table []enumLabel) []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].label
	}
	return out
}

// classFIFO is one of TAQ's class queues: a FIFO in which a packet
// pushed with a key files behind every queued packet whose key is at
// least its own. Recovery keys its retransmissions by flow silence, so
// the longest silence is served first and equal silences in arrival
// order (§4.1: "any retransmission from a flow in an extended silence
// period should be prioritized over a retransmission from a flow in a
// silence period"); the other four classes push key 0 and stay strictly
// FIFO (§4.2: "within each queue, we use a simple FIFO policy"). The
// four classes evict searches by flow also count each flow's queued
// packets, so the drop policy can pick its victim from the flow holding
// the most buffer — the "fine-grained control of packet drops across competing
// TCP flows" that gives TAQ its Fair-Queuing-like fairness (§3.2).
//
//taq:shardowned queue state belongs to the shard draining the link
type classFIFO struct {
	items []item
	head  int
	bytes int
	occ   map[packet.FlowID]occEntry // nil: no per-flow occupancy kept
}

// item is a packet in a class queue and the key it was filed by.
type item struct {
	pkt *packet.Packet
	key sim.Time
}

// occEntry is one queued flow's occupancy and a handle on its tracker
// record: the slot the latest enqueue of the flow held. The record can
// expire while packets wait and its slot go to another flow, so the
// handle is a hint, which the scorer checks (flowStore.resolve).
type occEntry struct {
	n, slot int32
}

// Len returns the number of queued packets.
func (f *classFIFO) Len() int { return len(f.items) - f.head }

// Bytes returns the queued byte total.
func (f *classFIFO) Bytes() int { return f.bytes }

// Push files p behind every queued packet whose key is at least key;
// slot is the tracker record slot of p's flow (any value when no
// tracker scores the victims).
func (f *classFIFO) Push(p *packet.Packet, slot int32, key sim.Time) {
	f.items = append(f.items, item{p, key}) //taq:allow noalloc amortized ring growth; Pop compacts in place
	for i := len(f.items) - 1; i > f.head && f.items[i-1].key < key; i-- {
		f.items[i], f.items[i-1] = f.items[i-1], f.items[i]
	}
	f.bytes += p.Size
	if f.occ != nil {
		e := f.occ[p.Flow]                               //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
		f.occ[p.Flow] = occEntry{n: e.n + 1, slot: slot} //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
	}
}

// Pop removes and returns the head packet, or nil.
func (f *classFIFO) Pop() *packet.Packet {
	if f.Len() == 0 {
		return nil
	}
	p := f.items[f.head].pkt
	f.items[f.head] = item{}
	f.head++
	f.remove(p)
	if f.head > 64 && f.head*2 >= len(f.items) {
		f.items = append(f.items[:0], f.items[f.head:]...)
		f.head = 0
	}
	return p
}

func (f *classFIFO) remove(p *packet.Packet) {
	f.bytes -= p.Size
	if f.occ == nil {
		return
	}
	if e := f.occ[p.Flow]; e.n <= 1 { //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
		delete(f.occ, p.Flow)
	} else {
		e.n--
		f.occ[p.Flow] = e //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
	}
}

// BestVictim returns the flow in this class that the drop policy
// should penalize: largest buffer occupancy, ties broken by the
// highest score (TAQ scores flows by their recent throughput, so
// equal-occupancy ties fall on the flow least in danger of a timeout),
// with the winner's score. score gets each flow's id and record
// handle. ok is false when the class is empty.
func (f *classFIFO) BestVictim(score func(packet.FlowID, int32) float64) (flow packet.FlowID, occ int, best float64, ok bool) {
	// The loop computes a maximum with a total-order tie-break
	// (occupancy, then score, then lowest flow id), so the winner is
	// independent of iteration order; sorting here would put an
	// O(n log n) pass on the per-drop hot path for nothing. The
	// incumbent's score is carried, so each flow is scored once
	// (occupancy ties are the common case).
	//taq:allow maprange,noalloc (total-order tie-break makes the max order-independent; the map itself is ROADMAP item 2)
	for fl, e := range f.occ {
		n, s := int(e.n), score(fl, e.slot)
		switch {
		case !ok, n > occ, n == occ && s > best,
			n == occ && s == best && fl < flow:
			flow, occ, best, ok = fl, n, s, true
		}
	}
	return
}

// PopFlow removes and returns the given flow's packet nearest the tail
// (its newest, where every key is 0), or nil if the flow has nothing
// queued.
func (f *classFIFO) PopFlow(flow packet.FlowID) *packet.Packet {
	for i := len(f.items) - 1; i >= f.head; i-- {
		if p := f.items[i].pkt; p.Flow == flow {
			copy(f.items[i:], f.items[i+1:])
			f.items[len(f.items)-1] = item{}
			f.items = f.items[:len(f.items)-1]
			f.remove(p)
			return p
		}
	}
	return nil
}

// PopNewest removes and returns the tail packet — the newest of those
// with the smallest key — or nil: plain tail drop where every key is
// 0, the shortest silence in Recovery.
func (f *classFIFO) PopNewest() *packet.Packet {
	if f.Len() == 0 {
		return nil
	}
	p := f.items[len(f.items)-1].pkt
	f.items[len(f.items)-1] = item{}
	f.items = f.items[:len(f.items)-1]
	f.remove(p)
	return p
}

// classQueues holds TAQ's five queues, indexed by Class.
//
//taq:shardowned queue state belongs to the shard draining the link
type classQueues [numClasses]classFIFO

func (cq *classQueues) totalLen() int {
	n := 0
	for c := range cq {
		n += cq[c].Len()
	}
	return n
}

func (cq *classQueues) totalBytes() int {
	b := 0
	for c := range cq {
		b += cq[c].Bytes()
	}
	return b
}
