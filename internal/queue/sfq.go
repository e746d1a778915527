package queue

import (
	"taq/internal/packet"
)

// SFQ implements Stochastic Fair Queueing (McKenney 1990): flows hash
// into a fixed set of buckets served round-robin; on overflow the
// packet at the tail of the longest bucket is dropped. The paper (§2.4,
// §5) observes SFQ degenerates to DropTail-like behaviour in small
// packet regimes because each flow rarely has more than one packet
// queued; this implementation lets the experiments verify that.
type SFQ struct {
	DropHook
	buckets  []FIFO
	capacity int // total packets across buckets
	len      int
	bytes    int
	// rr is the round-robin cursor over buckets.
	rr int
}

// NewSFQ returns an SFQ with nbuckets hash buckets and a total capacity
// in packets.
func NewSFQ(nbuckets, capacity int) *SFQ {
	if nbuckets < 1 {
		nbuckets = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	return &SFQ{buckets: make([]FIFO, nbuckets), capacity: capacity}
}

func (q *SFQ) bucketOf(f packet.FlowID) int {
	h := uint32(f) * 2654435761 // Knuth multiplicative hash
	h ^= h >> 16
	return int(h % uint32(len(q.buckets)))
}

// Enqueue implements Discipline.
//
//taq:hotpath per-packet path of the SFQ baseline
func (q *SFQ) Enqueue(p *packet.Packet) {
	b := q.bucketOf(p.Flow)
	q.buckets[b].Push(p)
	q.len++
	q.bytes += p.Size
	if q.len > q.capacity {
		q.dropFromLongest()
	}
}

func (q *SFQ) dropFromLongest() {
	longest, max := -1, 0
	for i := range q.buckets {
		if l := q.buckets[i].Len(); l > max {
			longest, max = i, l
		}
	}
	if longest < 0 {
		return
	}
	victim := q.buckets[longest].PopTail()
	q.len--
	q.bytes -= victim.Size
	q.Drop(victim)
}

// Dequeue implements Discipline.
//
//taq:hotpath per-packet path of the SFQ baseline
func (q *SFQ) Dequeue() *packet.Packet {
	if q.len == 0 {
		return nil
	}
	n := len(q.buckets)
	for i := 0; i < n; i++ {
		b := (q.rr + i) % n
		if q.buckets[b].Len() > 0 {
			p := q.buckets[b].Pop()
			q.rr = (b + 1) % n
			q.len--
			q.bytes -= p.Size
			return p
		}
	}
	return nil
}

// Len implements Discipline.
func (q *SFQ) Len() int { return q.len }

// Bytes implements Discipline.
func (q *SFQ) Bytes() int { return q.bytes }

var _ Discipline = (*SFQ)(nil)
