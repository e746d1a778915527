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

// recoveryItem is a queued retransmission with its priority key.
type recoveryItem struct {
	pkt *packet.Packet
	// silence is how long the packet's flow had been silent; longer
	// silences get strictly higher priority ("any retransmission from
	// a flow in an extended silence period should be prioritized over
	// a retransmission from a flow in a silence period", §4.1).
	silence sim.Time
	seq     uint64 // FIFO tiebreak
	index   int
}

// recoveryQueue is a concrete binary max-heap on silence length. Items
// never escape the queue (push takes a packet, pops return the packet),
// so fired items are recycled through a free list: steady-state
// retransmission traffic allocates no recoveryItems at all, which is
// the dominant allocation in the TAQ enqueue path.
//
//taq:shardowned queue state belongs to the shard draining the link
type recoveryQueue struct {
	items []*recoveryItem
	free  []*recoveryItem
	bytes int
	seq   uint64
}

func (q *recoveryQueue) Len() int { return len(q.items) }

// before orders the heap: longest silence first, FIFO tiebreak.
func (q *recoveryQueue) before(a, b *recoveryItem) bool {
	if a.silence != b.silence {
		return a.silence > b.silence
	}
	return a.seq < b.seq
}

func (q *recoveryQueue) siftUp(i int) {
	it := q.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q.items[parent]
		if !q.before(it, p) {
			break
		}
		q.items[i] = p
		p.index = i
		i = parent
	}
	q.items[i] = it
	it.index = i
}

func (q *recoveryQueue) siftDown(i int) {
	it := q.items[i]
	n := len(q.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.before(q.items[c+1], q.items[c]) {
			c++
		}
		if !q.before(q.items[c], it) {
			break
		}
		q.items[i] = q.items[c]
		q.items[i].index = i
		i = c
	}
	q.items[i] = it
	it.index = i
}

func (q *recoveryQueue) push(p *packet.Packet, silence sim.Time) {
	var it *recoveryItem
	if n := len(q.free); n > 0 {
		it = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		it = &recoveryItem{} //taq:allow noalloc free-list refill; steady state recycles via removeAt
	}
	it.pkt, it.silence, it.seq = p, silence, q.seq
	q.seq++
	it.index = len(q.items)
	q.items = append(q.items, it) //taq:allow noalloc amortized heap growth; capacity retained for the queue's lifetime
	q.siftUp(it.index)
	q.bytes += p.Size
}

// removeAt unlinks the item at heap index i and recycles it, returning
// its packet.
func (q *recoveryQueue) removeAt(i int) *packet.Packet {
	it := q.items[i]
	last := len(q.items) - 1
	if i != last {
		q.items[i] = q.items[last]
		q.items[i].index = i
	}
	q.items[last] = nil
	q.items = q.items[:last]
	if i < last {
		q.siftDown(i)
		q.siftUp(i)
	}
	p := it.pkt
	q.bytes -= p.Size
	it.pkt = nil
	it.index = -1
	q.free = append(q.free, it) //taq:allow noalloc free-list capacity mirrors q.items; amortized
	return p
}

// popBest removes the highest-priority (longest-silence) packet.
func (q *recoveryQueue) popBest() *packet.Packet {
	if len(q.items) == 0 {
		return nil
	}
	return q.removeAt(0)
}

// popWorst removes the lowest-priority (shortest-silence) packet — the
// victim when the recovery queue itself must shed load.
func (q *recoveryQueue) popWorst() *packet.Packet {
	if len(q.items) == 0 {
		return nil
	}
	worst := 0
	for i := 1; i < len(q.items); i++ {
		a, b := q.items[i], q.items[worst]
		if a.silence < b.silence || (a.silence == b.silence && a.seq > b.seq) {
			worst = i
		}
	}
	return q.removeAt(worst)
}

// classFIFO is a FIFO that additionally tracks per-flow occupancy so
// the drop policy can pick its victim from the flow holding the most
// buffer — the "fine-grained control of packet drops across competing
// TCP flows" that gives TAQ its Fair-Queuing-like fairness (§3.2).
// Service order stays strictly FIFO (§4.2: "within each queue, we use
// a simple FIFO policy").
//
//taq:shardowned queue state belongs to the shard draining the link
type classFIFO struct {
	items []*packet.Packet
	head  int
	bytes int
	occ   map[packet.FlowID]occEntry
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

// Push appends p at the tail; slot is the tracker record slot of p's
// flow (any value when no tracker scores the victims).
func (f *classFIFO) Push(p *packet.Packet, slot int32) {
	if f.occ == nil {
		f.occ = make(map[packet.FlowID]occEntry) //taq:allow noalloc lazy one-time init per class queue
	}
	f.items = append(f.items, p) //taq:allow noalloc amortized ring growth; Pop compacts in place
	f.bytes += p.Size
	e := f.occ[p.Flow]                               //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
	f.occ[p.Flow] = occEntry{n: e.n + 1, slot: slot} //taq:allow noalloc per-flow occupancy; ROADMAP item 2 flattens it
}

// Pop removes and returns the head packet, or nil.
func (f *classFIFO) Pop() *packet.Packet {
	if f.Len() == 0 {
		return nil
	}
	p := f.items[f.head]
	f.items[f.head] = nil
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

// PopFlow removes and returns the newest queued packet of the given
// flow, or nil if the flow has nothing queued.
func (f *classFIFO) PopFlow(flow packet.FlowID) *packet.Packet {
	for i := len(f.items) - 1; i >= f.head; i-- {
		if f.items[i] != nil && f.items[i].Flow == flow {
			p := f.items[i]
			copy(f.items[i:], f.items[i+1:])
			f.items[len(f.items)-1] = nil
			f.items = f.items[:len(f.items)-1]
			f.remove(p)
			return p
		}
	}
	return nil
}

// PopNewest removes and returns the most recently pushed packet
// (plain tail drop), used by the occupancy-drop ablation.
func (f *classFIFO) PopNewest() *packet.Packet {
	if f.Len() == 0 {
		return nil
	}
	p := f.items[len(f.items)-1]
	f.items[len(f.items)-1] = nil
	f.items = f.items[:len(f.items)-1]
	f.remove(p)
	return p
}

// classQueues bundles TAQ's five queues.
//
//taq:shardowned queue state belongs to the shard draining the link
type classQueues struct {
	recovery recoveryQueue
	fifos    [numClasses]classFIFO // index 0 unused (recovery is the heap)
}

func (cq *classQueues) lenOf(c Class) int {
	if c == ClassRecovery {
		return cq.recovery.Len()
	}
	return cq.fifos[c].Len()
}

func (cq *classQueues) totalLen() int {
	n := cq.recovery.Len()
	for c := 1; c < numClasses; c++ {
		n += cq.fifos[c].Len()
	}
	return n
}

func (cq *classQueues) totalBytes() int {
	b := cq.recovery.bytes
	for c := 1; c < numClasses; c++ {
		b += cq.fifos[c].Bytes()
	}
	return b
}
