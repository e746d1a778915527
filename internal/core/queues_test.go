package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// noScore ranks eviction candidates by occupancy alone.
func noScore(packet.FlowID, int32) float64 { return 0 }

func TestClassFIFOBasics(t *testing.T) {
	var f classFIFO
	if f.Pop() != nil || f.PopNewest() != nil {
		t.Error("empty classFIFO should return nil")
	}
	if _, _, _, ok := f.BestVictim(noScore); ok {
		t.Error("empty classFIFO should have no victim")
	}
	for i := 0; i < 5; i++ {
		f.Push(dataPkt(packet.FlowID(i), i), idxEmpty)
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
	f.Push(dataPkt(1, 0), idxEmpty)
	f.Push(dataPkt(7, 0), idxEmpty)
	f.Push(dataPkt(7, 1), idxEmpty)
	f.Push(dataPkt(2, 0), idxEmpty)
	f.Push(dataPkt(7, 2), idxEmpty)
	fl, occ, _, ok := f.BestVictim(noScore)
	if !ok || fl != 7 || occ != 3 {
		t.Fatalf("BestVictim = %d/%d/%v, want flow 7 occ 3", fl, occ, ok)
	}
	// Victim removal takes the newest packet of flow 7 (seq 2) and
	// leaves FIFO order for the rest.
	if p := f.PopFlow(fl); p.Flow != 7 || p.Seq != 2 {
		t.Fatalf("PopFlow(victim) = %v", p)
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
	f.Push(dataPkt(1, 0), idxEmpty)
	f.Push(dataPkt(2, 0), idxEmpty)
	// Equal occupancy: the higher-scoring (higher-rate) flow loses.
	score := func(fl packet.FlowID, _ int32) float64 {
		if fl == 2 {
			return 100
		}
		return 1
	}
	if fl, _, _, _ := f.BestVictim(score); fl != 2 {
		t.Errorf("victim = %d, want higher-rate flow 2", fl)
	}
}

func TestClassFIFOPopFlowMissing(t *testing.T) {
	var f classFIFO
	f.Push(dataPkt(1, 0), idxEmpty)
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
				q.Push(dataPkt(packet.FlowID(op%5), seq), idxEmpty)
				seq++
				pushed++
			case 2:
				if q.Pop() != nil {
					removed++
				}
			case 3:
				if fl, _, _, ok := q.BestVictim(noScore); ok {
					if q.PopFlow(fl) == nil {
						return false
					}
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
	// setEpoch is the one epoch writer: it keeps the incremental
	// inverse-epoch sum the scan reads in step.
	q.tracker.setEpoch(fa, 100*sim.Millisecond)
	q.tracker.setEpoch(fb, 400*sim.Millisecond)
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

// TestVictimHandlesSurviveSlotRecycling: a class queue keeps, next to
// each queued flow's occupancy, the record slot its enqueue held. The
// record can expire while the flow still has packets queued, and its
// slot then goes to another flow or — the free list is LIFO — to the
// same flow re-created. Either way the victim search must pick exactly
// the flow a scorer that looks every candidate up by id picks.
func TestVictimHandlesSurviveSlotRecycling(t *testing.T) {
	q := newTestShard(sim.NewEngine(1), testConfig())
	tr := q.tracker
	fifo := &q.q.fifos[ClassBelowFair]
	byID := func(id packet.FlowID, _ int32) float64 {
		if f := tr.get(id); f != nil {
			f.catchUp(tr.lastScan)
			return f.rateEWMA
		}
		return 0
	}
	seq := 0
	push := func(id packet.FlowID, n int) *flowInfo {
		var f *flowInfo
		for ; n > 0; n-- {
			p := dataPkt(id, seq)
			seq++
			f = tr.getOrCreate(p)
			fifo.Push(p, f.slot)
		}
		return f
	}
	// evictsTo checks BestVictim against the by-id reference, then
	// evicts and checks the packet came from want.
	evictsTo := func(want packet.FlowID) {
		t.Helper()
		checkVictimHandles(t, fifo, tr)
		fl, occ, s, ok := fifo.BestVictim(q.victimScoreFn)
		rfl, rocc, rs, rok := fifo.BestVictim(byID)
		if fl != rfl || occ != rocc || s != rs || ok != rok {
			t.Fatalf("BestVictim = %d/%d/%v/%v, by-id reference %d/%d/%v/%v", fl, occ, s, ok, rfl, rocc, rs, rok)
		}
		if p, _ := q.evict(); p == nil || p.Flow != want {
			t.Fatalf("evicted %v, want a packet of flow %d", p, want)
		}
	}

	a := push(1, 2)
	aSlot := a.slot
	push(2, 2).rateEWMA = 1

	// Flow 1 expires with two packets queued and flow 3 takes its slot.
	// Flow 3 is the fastest record in the table, but flow 1 is
	// untracked now and scores 0: the equal-occupancy tie goes to 2.
	tr.evictFlow(a)
	if c := tr.getOrCreate(dataPkt(3, 0)); c.slot != aSlot {
		t.Fatalf("flow 3 filed in slot %d, want flow 1's recycled slot %d", c.slot, aSlot)
	} else {
		c.rateEWMA = 100
	}
	evictsTo(2)

	// Flow 3 expires and flow 1 comes back in its old slot: the handle
	// its queued packets kept holds again and reads the new record.
	push(2, 1)
	tr.evictFlow(tr.get(3))
	a = tr.getOrCreate(dataPkt(1, seq))
	if a.slot != aSlot {
		t.Fatalf("flow 1 re-created in slot %d, want %d", a.slot, aSlot)
	}
	a.rateEWMA = 9
	if got := tr.store.resolve(1, fifo.occ[1].slot); got != a {
		t.Fatal("the re-created flow's queued handle did not resolve to its record")
	}
	evictsTo(1)
}
