package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// wheelEntries returns every entry w holds, walking the slot chains.
func wheelEntries(w *deadlineWheel) []deadlineEntry {
	var out []deadlineEntry
	for _, id := range w.heads {
		for ; id != 0; id = w.arena.chunks[id-1].next {
			c := &w.arena.chunks[id-1]
			out = append(out, c.e[:c.n]...)
		}
	}
	return out
}

func sortEntries(es []deadlineEntry) {
	slices.SortFunc(es, func(a, b deadlineEntry) int {
		if a.dl != b.dl {
			return int(a.dl - b.dl)
		}
		return int(a.slot) - int(b.slot)
	})
}

// checkArenaAccounting verifies that every chunk of a is on exactly one
// of the given wheels' slot chains or on the free list, that a chain
// holds no empty chunk and none but its head is partly filled, and that
// each wheel's count n is the sum of its chunks.
func checkArenaAccounting(t *testing.T, a *chunkArena, wheels ...*deadlineWheel) {
	t.Helper()
	seen := make([]bool, len(a.chunks))
	claim := func(id int32, where string) {
		if id < 1 || int(id) > len(a.chunks) {
			t.Fatalf("%s links chunk id %d outside the arena (%d chunks)", where, id, len(a.chunks))
		}
		if seen[id-1] {
			t.Fatalf("%s reaches chunk %d twice", where, id)
		}
		seen[id-1] = true
	}
	total := 0
	for wi, w := range wheels {
		n := 0
		for s, head := range w.heads {
			for id := head; id != 0; id = a.chunks[id-1].next {
				claim(id, "slot chain")
				c := &a.chunks[id-1]
				if c.n < 1 || c.n > chunkEntries || (id != head && c.n != chunkEntries) {
					t.Fatalf("wheel %d slot %d: chunk %d holds %d entries (head %d)", wi, s, id, c.n, head)
				}
				n += int(c.n)
				total++
			}
		}
		if n != w.n {
			t.Fatalf("wheel %d: n = %d, chains hold %d", wi, w.n, n)
		}
	}
	for id := a.free; id != 0; id = a.chunks[id-1].next {
		claim(id, "free list")
		total++
	}
	if total != len(a.chunks) {
		t.Fatalf("chains + free list hold %d chunks, arena has %d", total, len(a.chunks))
	}
}

// wheelModel drives one deadlineWheel and a naive slice side by side
// from a byte string. Two bytes make an op:
//
//	b0&3 = 0,1  push at now+δ, δ in [-2 widths, 3 wheel spans]
//	b0&3 = 2,3  drain; (b0>>2)&3 picks how now moves first: stall, a
//	            fraction of a width, a few widths, or past the whole
//	            wheel; on 3, visit pushes a follow-up entry (at or
//	            after now) for the first few entries it is handed
//
// After every drain the visited multiset, what stays filed, the count n and
// the arena accounting must agree with the model.
func wheelModel(t *testing.T, width sim.Time, slots int, data []byte) {
	t.Helper()
	var arena chunkArena
	span := width * sim.Time(slots-2)
	w := newDeadlineWheel(&arena, width, span)
	if len(w.heads) != slots {
		t.Fatalf("wheel has %d slots, want %d", len(w.heads), slots)
	}
	rev := width * sim.Time(slots)
	var model []deadlineEntry
	var now sim.Time
	var nextID int32
	push := func(dl sim.Time) {
		e := deadlineEntry{dl: dl, slot: nextID, gen: uint32(nextID) * 7}
		nextID++
		w.push(e)
		model = append(model, e)
	}
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		arg := sim.Time(b0>>2)<<8 | sim.Time(b1)
		if b0&3 < 2 {
			push(now - 2*width + arg%(3*rev+2*width+1))
			if w.n != len(model) {
				t.Fatalf("op %d: n = %d after push, model holds %d", i/2, w.n, len(model))
			}
			continue
		}
		switch (b0 >> 2) & 3 {
		case 1:
			now += sim.Time(b1) % width
		case 2:
			now += sim.Time(b1) * width / 16
		case 3:
			now += rev + sim.Time(b1)*width
		}
		var want, keep []deadlineEntry
		for _, e := range model {
			if e.dl < now {
				want = append(want, e)
			} else {
				keep = append(keep, e)
			}
		}
		model = keep
		var got []deadlineEntry
		budget := 0
		if b0&3 == 3 {
			budget = 1 + int(b1&7)
		}
		w.drain(now, func(e deadlineEntry) {
			got = append(got, e)
			if budget > 0 {
				budget--
				push(now + ((e.dl+arg)%(2*rev)+2*rev)%(2*rev))
			}
		})
		sortEntries(got)
		sortEntries(want)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: drain(%d) visited %v, model says %v", i/2, now, got, want)
		}
		filed := wheelEntries(&w)
		sortEntries(filed)
		sortEntries(model)
		if !slices.Equal(filed, model) {
			t.Fatalf("op %d: after drain(%d) wheel files %v, model holds %v", i/2, now, filed, model)
		}
		checkArenaAccounting(t, &arena, &w)
	}
	checkArenaAccounting(t, &arena, &w)
}

// TestDeadlineWheelMatchesModel runs seeded random op strings through
// the model at three geometries (the one-slot wheel makes every entry
// share a chain with every revolution).
func TestDeadlineWheelMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range []struct {
		width sim.Time
		slots int
	}{{100, 8}, {7, 16}, {1000, 2}} {
		for round := 0; round < 200; round++ {
			data := make([]byte, 2*(1+rng.Intn(200)))
			rng.Read(data)
			wheelModel(t, g.width, g.slots, data)
		}
	}
}

// FuzzDeadlineWheel is the same model under the fuzzer; the named
// seeds under testdata/fuzz pin the shapes a wheel gets wrong first.
func FuzzDeadlineWheel(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x02, 0x00})
	f.Add([]byte{0x04, 0xff, 0xfc, 0x80, 0x0e, 0x01, 0x03, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		wheelModel(t, 100, 8, data)
	})
}

// TestDeadlineWheelDuePushFromVisit pins what the drain contract says
// about an entry that visit pushes already overdue: it is handed over
// by the same drain or by the next one, never lost behind the
// watermark.
func TestDeadlineWheelDuePushFromVisit(t *testing.T) {
	for _, now := range []sim.Time{300, 350} {
		var arena chunkArena
		w := newDeadlineWheel(&arena, 100, 600)
		w.push(deadlineEntry{dl: 120, slot: 1})
		w.push(deadlineEntry{dl: 290, slot: 2})
		seen := map[int32]int{}
		visit := func(e deadlineEntry) {
			seen[e.slot]++
			if e.slot <= 2 {
				w.push(deadlineEntry{dl: 10, slot: e.slot + 10})
			}
		}
		w.drain(now, visit)
		w.drain(now, visit)
		for _, slot := range []int32{1, 2, 11, 12} {
			if seen[slot] != 1 {
				t.Errorf("now=%d: entry %d visited %d times, want 1", now, slot, seen[slot])
			}
		}
		if w.n != 0 {
			t.Errorf("now=%d: %d entries left filed", now, w.n)
		}
		checkArenaAccounting(t, &arena, &w)
	}
}

// TestDeadlineWheelArenaRecycles fills one slot with 100 k entries and
// drains it, ten times over: the free list must hand the first cycle's
// chunks back, so the arena never grows past its first high-water mark.
func TestDeadlineWheelArenaRecycles(t *testing.T) {
	var arena chunkArena
	w := newDeadlineWheel(&arena, 100, 1000)
	const n = 100_000
	highWater := 0
	for cycle := 0; cycle < 10; cycle++ {
		at := sim.Time(cycle) * 5000
		for i := 0; i < n; i++ {
			w.push(deadlineEntry{dl: at + 150, slot: int32(i)})
		}
		if cycle == 0 {
			highWater = len(arena.chunks)
		}
		visited := 0
		w.drain(at+200, func(deadlineEntry) { visited++ })
		if visited != n || w.n != 0 {
			t.Fatalf("cycle %d: visited %d of %d, %d left", cycle, visited, n, w.n)
		}
	}
	if want := (n + chunkEntries - 1) / chunkEntries; highWater != want {
		t.Fatalf("first cycle used %d chunks for %d entries, want %d", highWater, n, want)
	}
	if len(arena.chunks) > highWater {
		t.Fatalf("arena grew to %d chunks, first-cycle high-water mark was %d", len(arena.chunks), highWater)
	}
	checkArenaAccounting(t, &arena, &w)
}

// TestSmallTrackerWheelFootprint holds the wheels of a 60-flow tracker
// to 64 KB after 100 simulated seconds of dumbbell-like traffic (bulk
// senders, retransmissions, acks, drops at a 32-packet buffer). Every
// occupied slot owns a chunk, so this is where a chunk size chosen for
// the million-flow table fails silently.
func TestSmallTrackerWheelFootprint(t *testing.T) {
	eng := sim.NewEngine(1)
	q := newTestShard(eng, DefaultConfig(600*link.Kbps, 32))
	q.Start()
	const flows = 60
	rng := rand.New(rand.NewSource(60))
	seqs := make([]int, flows)
	for now := sim.Time(0); now < 100*sim.Second; now += 5 * sim.Millisecond {
		eng.RunUntil(now)
		i := rng.Intn(flows)
		fl := packet.FlowID(i + 1)
		switch r := rng.Intn(10); {
		case r < 6:
			q.Enqueue(&packet.Packet{Flow: fl, Kind: packet.Data, Seq: seqs[i], Size: 500})
			seqs[i]++
		case r < 7:
			q.Enqueue(&packet.Packet{Flow: fl, Kind: packet.Data, Seq: max(seqs[i]-2, 0), Size: 500, Retransmit: true})
		case r < 8:
			q.ObserveReverse(&packet.Packet{Flow: fl, Kind: packet.Ack, CumAck: seqs[i], Size: 40})
		default:
			q.Dequeue()
		}
		if now%(7*sim.Millisecond) == 0 {
			q.Dequeue()
		}
	}
	q.Stop()
	tr := q.tracker
	if tr.store.len() != flows {
		t.Fatalf("tracker holds %d flows, want %d", tr.store.len(), flows)
	}
	checkTrackerEquivalence(t, tr, eng.Now())
	heads := (len(tr.actWheel.heads) + len(tr.scanWheel.heads)) * 4
	arena := cap(tr.chunks.chunks) * int(unsafe.Sizeof(wheelChunk{}))
	t.Logf("wheel heads %d B, arena %d B (%d chunks in use of %d)", heads, arena,
		len(tr.chunks.chunks), cap(tr.chunks.chunks))
	if heads+arena > 64<<10 {
		t.Fatalf("60-flow tracker holds %d B of wheel heads and %d B of chunk arena, over 64 KB", heads, arena)
	}
}
