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
func wheelEntries(w *deadlineWheel) []wheelEntry {
	var out []wheelEntry
	for _, id := range w.heads {
		for ; id != 0; id = w.arena.chunks[id-1].next {
			c := &w.arena.chunks[id-1]
			out = append(out, c.e[:c.n]...)
		}
	}
	return out
}

// ownsEntry reports whether w files e where the entry of a live
// deadline dl must be: in dl's own slot, or in the watermark slot when
// dl lies behind it.
func ownsEntry(w *deadlineWheel, e wheelEntry, dl sim.Time) bool {
	s := max(int64(dl/w.width), w.cur)
	for id := w.heads[s&w.mask]; id != 0; id = w.arena.chunks[id-1].next {
		c := &w.arena.chunks[id-1]
		if slices.Contains(c.e[:c.n], e) {
			return true
		}
	}
	return false
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

// wheelFlows stands in for the tracker's records in the wheel tests: a
// generation and a mirror deadline per slot (0 = disarmed).
type wheelFlows struct {
	gen    []uint32
	mirror []sim.Time
}

func newWheelFlows(n int) *wheelFlows {
	return &wheelFlows{gen: make([]uint32, n), mirror: make([]sim.Time, n)}
}

// arm files slot's flow on w under dl and makes dl its mirror.
func (fl *wheelFlows) arm(w *deadlineWheel, slot int32, dl sim.Time) {
	w.push(wheelEntry{slot: slot, gen: fl.gen[slot]}, dl)
	fl.mirror[slot] = dl
}

// visitor is the tracker's drain visitor over these records: a stale
// entry is dropped, a passed mirror is disarmed and handed to due, a
// pending one goes back to drain.
func (fl *wheelFlows) visitor(now sim.Time, due func(slot int32)) func(wheelEntry) sim.Time {
	return func(e wheelEntry) sim.Time {
		m := fl.mirror[e.slot]
		if fl.gen[e.slot] != e.gen || m == 0 {
			return 0
		}
		if m >= now {
			return m
		}
		fl.mirror[e.slot] = 0
		due(e.slot)
		return 0
	}
}

// checkMirrorsOwned fails unless every armed mirror owns its entry.
func (fl *wheelFlows) checkMirrorsOwned(t *testing.T, w *deadlineWheel, op int) {
	t.Helper()
	for i, m := range fl.mirror {
		e := wheelEntry{slot: int32(i), gen: fl.gen[i]}
		if m != 0 && !ownsEntry(w, e, m) {
			t.Fatalf("op %d: flow %d armed at %d has no entry in slot %d (watermark %d): %v",
				op, i, m, max(int64(m/w.width), w.cur), w.cur, wheelEntries(w))
		}
	}
}

// wheelModel drives one deadlineWheel over eight stand-in records from a
// byte string. Two bytes make an op; f = (b0>>2)&7 names a flow:
//
//	b0&3 = 0  push f at now+δ, δ in [-2 widths, 3 wheel spans]
//	          ((b0>>5)<<8|b1 picks it), and arm f's mirror there — a
//	          later push leaves an earlier stale entry, a second push
//	          into one slot two entries of one flow
//	b0&3 = 1  evict f: bump its generation and disarm it, stranding its
//	          entries as a recycled slot's
//	b0&3 = 2,3 drain; (b0>>2)&3 picks how now moves first: stall, a
//	          fraction of a width, a few widths, or past the whole
//	          wheel; on 3, visit re-arms the first 1+(b0>>4)&7 due
//	          flows at or after now
//
// After every op every armed mirror must own an entry in its own slot
// or in the watermark slot, and n and the arena accounting must hold;
// after every drain each flow whose mirror had passed must have been
// handled exactly once, and no other.
func wheelModel(t *testing.T, width sim.Time, slots int, data []byte) {
	t.Helper()
	var arena chunkArena
	span := width * sim.Time(slots-2)
	w := newDeadlineWheel(&arena, width, span)
	if len(w.heads) != slots {
		t.Fatalf("wheel has %d slots, want %d", len(w.heads), slots)
	}
	rev := width * sim.Time(slots)
	fl := newWheelFlows(8)
	var now sim.Time
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		f := int32(b0>>2) & 7
		switch b0 & 3 {
		case 0:
			arg := sim.Time(b0>>5)<<8 | sim.Time(b1)
			fl.arm(&w, f, max(now-2*width+arg%(3*rev+2*width+1), 1))
		case 1:
			fl.gen[f]++
			fl.mirror[f] = 0
		default:
			switch (b0 >> 2) & 3 {
			case 1:
				now += sim.Time(b1) % width
			case 2:
				now += sim.Time(b1) * width / 16
			case 3:
				now += rev + sim.Time(b1)*width
			}
			var want []int32
			for j, m := range fl.mirror {
				if m != 0 && m < now {
					want = append(want, int32(j))
				}
			}
			budget := 0
			if b0&3 == 3 {
				budget = 1 + int(b0>>4)&7
			}
			var got []int32
			w.drain(now, fl.visitor(now, func(slot int32) {
				got = append(got, slot)
				if budget > 0 {
					budget--
					fl.arm(&w, slot, now+sim.Time(b1)*width/8+sim.Time(slot))
				}
			}))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: drain(%d) handled flows %v, mirrors say %v", i/2, now, got, want)
			}
		}
		fl.checkMirrorsOwned(t, &w, i/2)
		checkArenaAccounting(t, &arena, &w)
	}
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
// about an entry that visit pushes already overdue: it is handled by
// the same drain or by the next one, never lost behind the watermark.
func TestDeadlineWheelDuePushFromVisit(t *testing.T) {
	for _, now := range []sim.Time{300, 350} {
		var arena chunkArena
		w := newDeadlineWheel(&arena, 100, 600)
		fl := newWheelFlows(13)
		fl.arm(&w, 1, 120)
		fl.arm(&w, 2, 290)
		seen := map[int32]int{}
		visit := fl.visitor(now, func(slot int32) {
			seen[slot]++
			if slot <= 2 {
				fl.arm(&w, slot+10, 10)
			}
		})
		w.drain(now, visit)
		w.drain(now, visit)
		for _, slot := range []int32{1, 2, 11, 12} {
			if seen[slot] != 1 {
				t.Errorf("now=%d: flow %d handled %d times, want 1", now, slot, seen[slot])
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
			w.push(wheelEntry{slot: int32(i)}, at+150)
		}
		if cycle == 0 {
			highWater = len(arena.chunks)
		}
		visited := 0
		w.drain(at+200, func(wheelEntry) sim.Time { visited++; return 0 })
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
