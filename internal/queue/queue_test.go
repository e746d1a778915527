package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taq/internal/packet"
	"taq/internal/sim"
)

func pkt(flow packet.FlowID, seq int) *packet.Packet {
	return &packet.Packet{Flow: flow, Kind: packet.Data, Seq: seq, Size: 500}
}

func TestFIFOOrder(t *testing.T) {
	var f FIFO
	for i := 0; i < 100; i++ {
		f.Push(pkt(1, i))
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.Bytes() != 100*500 {
		t.Fatalf("Bytes = %d", f.Bytes())
	}
	for i := 0; i < 100; i++ {
		p := f.Pop()
		if p == nil || p.Seq != i {
			t.Fatalf("Pop %d = %v", i, p)
		}
	}
	if f.Pop() != nil || f.Peek() != nil || f.PopTail() != nil {
		t.Error("empty FIFO should return nil")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	var f FIFO
	// Interleave pushes and pops to force the ring to wrap.
	seq := 0
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			f.Push(pkt(1, seq))
			seq++
		}
		for i := 0; i < 5; i++ {
			p := f.Pop()
			if p.Seq != next {
				t.Fatalf("out of order: got %d want %d", p.Seq, next)
			}
			next++
		}
	}
	for f.Len() > 0 {
		p := f.Pop()
		if p.Seq != next {
			t.Fatalf("drain out of order: got %d want %d", p.Seq, next)
		}
		next++
	}
	if next != seq {
		t.Fatalf("drained %d, pushed %d", next, seq)
	}
}

func TestFIFOPopTail(t *testing.T) {
	var f FIFO
	for i := 0; i < 5; i++ {
		f.Push(pkt(1, i))
	}
	if p := f.PopTail(); p.Seq != 4 {
		t.Fatalf("PopTail = %d, want 4", p.Seq)
	}
	if p := f.Pop(); p.Seq != 0 {
		t.Fatalf("Pop = %d, want 0", p.Seq)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
}

func TestFIFOPeek(t *testing.T) {
	var f FIFO
	f.Push(pkt(1, 9))
	if f.Peek().Seq != 9 || f.Len() != 1 {
		t.Error("Peek must not remove")
	}
}

// Property: FIFO preserves order and conserves bytes under arbitrary
// push/pop interleavings.
func TestFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var q FIFO
		pushed, popped := 0, 0
		for _, push := range ops {
			if push {
				q.Push(pkt(1, pushed))
				pushed++
			} else if p := q.Pop(); p != nil {
				if p.Seq != popped {
					return false
				}
				popped++
			}
		}
		return q.Len() == pushed-popped && q.Bytes() == 500*(pushed-popped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestDropTailCapacity(t *testing.T) {
	q := NewDropTail(3)
	var dropped []*packet.Packet
	q.AddDropHook(func(p *packet.Packet) { dropped = append(dropped, p) })
	for i := 0; i < 5; i++ {
		q.Enqueue(pkt(1, i))
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	if len(dropped) != 2 || dropped[0].Seq != 3 || dropped[1].Seq != 4 {
		t.Errorf("dropped = %v", dropped)
	}
	// FIFO order of survivors.
	for i := 0; i < 3; i++ {
		if p := q.Dequeue(); p.Seq != i {
			t.Errorf("dequeue %d = %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
}

func TestDropTailMinCapacity(t *testing.T) {
	q := NewDropTail(0)
	if q.Capacity() != 1 {
		t.Errorf("capacity clamped to %d, want 1", q.Capacity())
	}
}

func TestREDBelowMinThNoDrops(t *testing.T) {
	e := sim.NewEngine(1)
	q := NewRED(REDConfig{Capacity: 100, MinTh: 20, MaxTh: 60, MeanPktTime: sim.Millisecond}, e.Now, e.Rand())
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	// Keep the instantaneous queue small: avg stays below MinTh.
	for i := 0; i < 1000; i++ {
		q.Enqueue(pkt(1, i))
		if q.Len() > 5 {
			q.Dequeue()
		}
	}
	if drops != 0 {
		t.Errorf("drops = %d below MinTh", drops)
	}
}

func TestREDForcedDropAtCapacity(t *testing.T) {
	e := sim.NewEngine(1)
	q := NewRED(REDConfig{Capacity: 10, MinTh: 2, MaxTh: 8, MeanPktTime: sim.Millisecond}, e.Now, e.Rand())
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	for i := 0; i < 100; i++ {
		q.Enqueue(pkt(1, i))
	}
	if q.Len() > 10 {
		t.Errorf("Len = %d exceeds capacity", q.Len())
	}
	if drops == 0 {
		t.Error("expected forced drops at capacity")
	}
}

func TestREDEarlyDropsBetweenThresholds(t *testing.T) {
	e := sim.NewEngine(1)
	q := NewRED(REDConfig{Capacity: 1000, MinTh: 5, MaxTh: 500, MaxP: 0.5, Weight: 0.2, MeanPktTime: sim.Millisecond}, e.Now, e.Rand())
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	// Grow the queue steadily; avg crosses MinTh quickly with w=0.2.
	for i := 0; i < 400; i++ {
		q.Enqueue(pkt(1, i))
	}
	if drops == 0 {
		t.Error("expected probabilistic early drops between thresholds")
	}
	if q.Len()+drops != 400 {
		t.Errorf("conservation violated: len %d + drops %d != 400", q.Len(), drops)
	}
}

func TestREDIdleDecay(t *testing.T) {
	e := sim.NewEngine(1)
	q := NewRED(REDConfig{Capacity: 100, MinTh: 5, MaxTh: 50, Weight: 0.5, MeanPktTime: sim.Millisecond}, e.Now, e.Rand())
	for i := 0; i < 50; i++ {
		q.Enqueue(pkt(1, i))
	}
	avgBusy := q.AvgQueue()
	for q.Len() > 0 {
		q.Dequeue()
	}
	// A long idle period must decay the average.
	e.RunUntil(10 * sim.Second)
	q.Enqueue(pkt(1, 99))
	if q.AvgQueue() >= avgBusy/2 {
		t.Errorf("avg did not decay across idle: before %f after %f", avgBusy, q.AvgQueue())
	}
}

func TestREDDefaults(t *testing.T) {
	e := sim.NewEngine(1)
	q := NewRED(REDConfig{Capacity: 40}, e.Now, e.Rand())
	if q.cfg.MinTh != 10 || q.cfg.MaxTh != 30 || q.cfg.MaxP != 0.1 || q.cfg.Weight != 0.002 {
		t.Errorf("defaults = %+v", q.cfg)
	}
}

func TestSFQRoundRobinFairness(t *testing.T) {
	q := NewSFQ(64, 1000)
	// Three flows, 30 packets each.
	for i := 0; i < 30; i++ {
		for f := packet.FlowID(1); f <= 3; f++ {
			q.Enqueue(pkt(f, i))
		}
	}
	// The first 30 dequeues should include roughly equal shares if the
	// flows landed in distinct buckets (with 64 buckets and 3 flows,
	// collisions are possible but the chosen IDs hash apart).
	counts := map[packet.FlowID]int{}
	for i := 0; i < 30; i++ {
		p := q.Dequeue()
		counts[p.Flow]++
	}
	for f := packet.FlowID(1); f <= 3; f++ {
		if counts[f] < 5 {
			t.Errorf("flow %d served %d of first 30; SFQ not interleaving (counts=%v)", f, counts[f], counts)
		}
	}
}

func TestSFQDropsFromLongestBucket(t *testing.T) {
	q := NewSFQ(64, 10)
	var dropped []*packet.Packet
	q.AddDropHook(func(p *packet.Packet) { dropped = append(dropped, p) })
	// Flow 1 hogs the queue, then flow 2 arrives.
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(1, i))
	}
	q.Enqueue(pkt(2, 0))
	if len(dropped) != 1 || dropped[0].Flow != 1 {
		t.Fatalf("dropped = %v, want one packet of flow 1", dropped)
	}
	if q.Len() != 10 {
		t.Errorf("Len = %d, want 10", q.Len())
	}
}

func TestSFQConservation(t *testing.T) {
	q := NewSFQ(8, 50)
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	enq := 0
	for f := packet.FlowID(0); f < 20; f++ {
		for i := 0; i < 10; i++ {
			q.Enqueue(pkt(f, i))
			enq++
		}
	}
	deq := 0
	for q.Dequeue() != nil {
		deq++
	}
	if deq+drops != enq {
		t.Errorf("conservation: deq %d + drops %d != enq %d", deq, drops, enq)
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("drained queue reports Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
}

func TestSFQEmptyDequeue(t *testing.T) {
	q := NewSFQ(4, 10)
	if q.Dequeue() != nil {
		t.Error("empty SFQ dequeue must be nil")
	}
}

func TestSFQPerturbationChangesBuckets(t *testing.T) {
	q := NewSFQ(1024, 10)
	b1 := q.bucketOf(42)
	q.SetPerturbation(0xdeadbeef)
	b2 := q.bucketOf(42)
	if b1 == b2 {
		t.Skip("hash collision under perturbation (unlikely); not an error")
	}
}

func TestREDGentleRegionPassesSomePackets(t *testing.T) {
	e := sim.NewEngine(1)
	mk := func(gentle bool) (*RED, *int) {
		q := NewRED(REDConfig{
			Capacity: 200, MinTh: 5, MaxTh: 20, MaxP: 0.1,
			Weight: 0.5, MeanPktTime: sim.Millisecond, Gentle: gentle,
		}, e.Now, e.Rand())
		drops := new(int)
		q.AddDropHook(func(*packet.Packet) { *drops++ })
		return q, drops
	}
	// Drive the average into (MaxTh, 2*MaxTh): keep ~30 packets
	// queued. Strict RED drops every arrival there; gentle RED lets a
	// fraction through.
	run := func(q *RED) (accepted int) {
		for i := 0; i < 500; i++ {
			before := q.Len()
			q.Enqueue(pkt(1, i))
			if q.Len() > before {
				accepted++
			}
			if q.Len() > 30 {
				q.Dequeue()
			}
		}
		return
	}
	strict, _ := mk(false)
	gentle, _ := mk(true)
	accStrict := run(strict)
	accGentle := run(gentle)
	if accGentle <= accStrict {
		t.Errorf("gentle accepted %d ≤ strict %d; gentle region not softer", accGentle, accStrict)
	}
}
