package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

func TestClassFIFOBasics(t *testing.T) {
	var f classFIFO
	if f.Pop() != nil || f.PopNewest() != nil || f.PopVictim() != nil {
		t.Error("empty classFIFO should return nil")
	}
	for i := 0; i < 5; i++ {
		f.Push(dataPkt(packet.FlowID(i), i))
	}
	if f.Len() != 5 || f.Bytes() != 5*500 {
		t.Fatalf("Len=%d Bytes=%d", f.Len(), f.Bytes())
	}
	if p := f.Pop(); p.Seq != 0 {
		t.Errorf("Pop = seq %d, want FIFO head", p.Seq)
	}
	if p := f.PopNewest(); p.Seq != 4 {
		t.Errorf("PopNewest = seq %d, want 4", p.Seq)
	}
}

func TestClassFIFOVictimIsHeaviestFlow(t *testing.T) {
	var f classFIFO
	// Flow 7 has 3 packets, others 1 each.
	f.Push(dataPkt(1, 0))
	f.Push(dataPkt(7, 0))
	f.Push(dataPkt(7, 1))
	f.Push(dataPkt(2, 0))
	f.Push(dataPkt(7, 2))
	fl, occ, ok := f.BestVictim(func(packet.FlowID) float64 { return 0 })
	if !ok || fl != 7 || occ != 3 {
		t.Fatalf("BestVictim = %d/%d/%v, want flow 7 occ 3", fl, occ, ok)
	}
	// Victim removal takes the newest packet of flow 7 (seq 2) and
	// leaves FIFO order for the rest.
	if p := f.PopVictim(); p.Flow != 7 || p.Seq != 2 {
		t.Fatalf("PopVictim = %v", p)
	}
	order := []struct {
		flow packet.FlowID
		seq  int
	}{{1, 0}, {7, 0}, {7, 1}, {2, 0}}
	for _, want := range order {
		p := f.Pop()
		if p.Flow != want.flow || p.Seq != want.seq {
			t.Fatalf("order broken: got %v want %v", p, want)
		}
	}
}

func TestClassFIFOScoreTieBreak(t *testing.T) {
	var f classFIFO
	f.Push(dataPkt(1, 0))
	f.Push(dataPkt(2, 0))
	// Equal occupancy: the higher-scoring (higher-rate) flow loses.
	score := func(fl packet.FlowID) float64 {
		if fl == 2 {
			return 100
		}
		return 1
	}
	if fl, _, _ := f.BestVictim(score); fl != 2 {
		t.Errorf("victim = %d, want higher-rate flow 2", fl)
	}
}

func TestClassFIFOPopFlowMissing(t *testing.T) {
	var f classFIFO
	f.Push(dataPkt(1, 0))
	if f.PopFlow(9) != nil {
		t.Error("PopFlow of absent flow should be nil")
	}
	if f.Len() != 1 {
		t.Error("PopFlow of absent flow must not disturb queue")
	}
}

// Property: classFIFO conserves packets and bytes under arbitrary
// push/pop/victim interleavings, and occupancy counts always match the
// queue contents.
func TestClassFIFOConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q classFIFO
		pushed, removed := 0, 0
		seq := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				q.Push(dataPkt(packet.FlowID(op%5), seq))
				seq++
				pushed++
			case 2:
				if q.Pop() != nil {
					removed++
				}
			case 3:
				if q.PopVictim() != nil {
					removed++
				}
			}
		}
		if q.Len() != pushed-removed || q.Bytes() != 500*(pushed-removed) {
			return false
		}
		// Drain and recount occupancy consistency.
		counts := map[packet.FlowID]int{}
		for {
			p := q.Pop()
			if p == nil {
				break
			}
			counts[p.Flow]++
		}
		return q.Len() == 0 && q.Bytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// Property: the recovery queue always pops in non-increasing silence
// order via popBest, regardless of push order.
func TestRecoveryQueueOrderProperty(t *testing.T) {
	f := func(silences []uint16) bool {
		var rq recoveryQueue
		for i, s := range silences {
			rq.push(dataPkt(packet.FlowID(i), i), sim.Time(s)*sim.Millisecond)
		}
		prev := sim.Time(1 << 62)
		for rq.Len() > 0 {
			it := rq.items[0]
			_ = it
			p := rq.popBest()
			_ = p
			// Track via the heap's exposed ordering: re-derive the
			// silence by finding it in the input (index = seq).
			s := sim.Time(silences[p.Seq]) * sim.Millisecond
			if s > prev {
				return false
			}
			prev = s
		}
		return rq.bytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

func TestProportionalFairShare(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(600*link.Kbps, 30)
	cfg.Fairness = Proportional
	q := newTestShard(e, cfg)
	q.Start()
	// Two flows with very different epochs: the short-RTT flow gets
	// the larger proportional share.
	q.Enqueue(synPkt(1, packet.PoolNone))
	q.Enqueue(synPkt(2, packet.PoolNone))
	fa := q.tracker.get(1)
	fb := q.tracker.get(2)
	fa.epoch = 100 * sim.Millisecond
	fb.epoch = 400 * sim.Millisecond
	// Direct epoch edits bypass observe(); resync the incremental
	// inverse-epoch sum the scan reads.
	q.tracker.reconcile(fa)
	q.tracker.reconcile(fb)
	e.RunUntil(300 * sim.Millisecond) // let a scan cache invEpochSum
	sa := q.flowFairShare(fa)
	sb := q.flowFairShare(fb)
	if sa <= sb {
		t.Errorf("short-RTT share %v ≤ long-RTT share %v", sa, sb)
	}
	// Shares still sum to the link rate.
	if got := sa + sb; got < 0.99*600e3 || got > 1.01*600e3 {
		t.Errorf("share sum = %v, want ≈600k", got)
	}
}
