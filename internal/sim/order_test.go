package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// fired is one callback run: which event, at what clock.
type fired struct {
	id int
	at Time
}

// modelEvent is a pending event of engineModel. token names the handle
// timer it belongs to (0 for fire-and-forget events); chain says what
// its callback schedules when it fires.
type modelEvent struct {
	at    Time
	seq   uint64
	id    int
	token int
	slot  int
	chain chainKind
	delay Time
}

type chainKind uint8

const (
	chainNone       chainKind = iota
	chainAfter                // the callback schedules an After child
	chainAfterArg             // the callback schedules an AfterArg child
	chainReschedule           // the callback reschedules its handle slot
)

// engineModel is the naive reference for the engine's order: a slice
// of pending events in which the least (at, seq) fires next.
type engineModel struct {
	now   Time
	seq   uint64
	toks  int
	slots [4]int
	q     []modelEvent
	fired []fired
}

func (m *engineModel) add(ev modelEvent) Time {
	ev.at = max(ev.at, m.now)
	ev.seq = m.seq
	m.seq++
	m.q = append(m.q, ev)
	return ev.at
}

// drop unlinks the pending event of handle tok, if any.
func (m *engineModel) drop(tok int) {
	m.q = slices.DeleteFunc(m.q, func(ev modelEvent) bool { return tok != 0 && ev.token == tok })
}

// schedule puts a new handle timer in slot k, abandoning (not
// canceling) the one there.
func (m *engineModel) schedule(k int, ev modelEvent) Time {
	m.toks++
	m.slots[k] = m.toks
	ev.token, ev.slot = m.toks, k
	return m.add(ev)
}

// reschedule re-arms slot k's timer in place, or makes one if the slot
// is empty, as Engine.Reschedule does.
func (m *engineModel) reschedule(k int, ev modelEvent) Time {
	if m.slots[k] == 0 {
		return m.schedule(k, ev)
	}
	m.drop(m.slots[k])
	ev.token, ev.slot = m.slots[k], k
	return m.add(ev)
}

// step fires the least pending event with key at or before end.
func (m *engineModel) step(end Time) bool {
	if len(m.q) == 0 {
		return false
	}
	i := 0
	for j, ev := range m.q {
		if ev.at < m.q[i].at || ev.at == m.q[i].at && ev.seq < m.q[i].seq {
			i = j
		}
	}
	ev := m.q[i]
	if ev.at > end {
		return false
	}
	m.q = slices.Delete(m.q, i, i+1)
	m.now = ev.at
	m.fired = append(m.fired, fired{ev.id, ev.at})
	child := modelEvent{at: m.now + ev.delay, id: -ev.id}
	switch ev.chain {
	case chainAfter, chainAfterArg:
		m.add(child)
	case chainReschedule:
		m.reschedule(ev.slot, child)
	}
	return true
}

func (m *engineModel) runUntil(end Time) {
	for m.step(end) {
	}
	m.now = max(m.now, end)
}

// engineOrderModel runs the op string data through an Engine and the
// naive model side by side and fails at the first op after which their
// fire order, clock at each fire, clock, Pending count or a handle's
// When differ. Each op is two bytes: b0's low three bits pick the op,
// the next two a handle slot, bit 5 a chained callback; b1's low three
// bits pick the delay (a multiple of 10 from −10 to 60, so same-instant
// ties are the common case), its top two a chained child's delay. Ops:
// 0 After (chained: the callback schedules an AfterArg), 1 AfterArg
// (chained: an After that schedules an After), 2 Schedule into the slot
// (chained: the callback reschedules its slot), 3 ScheduleAt 40 before
// the delay, mostly in the past, 4 Cancel the slot, 5 Reschedule the
// slot (chained as 2), 6 RunUntil up to 155 ahead, 7 Step.
func engineOrderModel(t *testing.T, data []byte) {
	e := NewEngine(1)
	m := &engineModel{}
	var got []fired
	var handles [4]*Timer
	record := func(id int) { got = append(got, fired{id, e.Now()}) }
	recordArg := func(arg any) { record(*arg.(*int)) }
	// callback returns the engine side of event id: record it, then
	// schedule what chain says.
	var callback func(id int, chain chainKind, k int, delay Time) func()
	callback = func(id int, chain chainKind, k int, delay Time) func() {
		return func() {
			record(id)
			switch chain {
			case chainAfter:
				e.After(delay, callback(-id, chainNone, 0, 0))
			case chainAfterArg:
				child := -id
				e.AfterArg(delay, recordArg, &child)
			case chainReschedule:
				handles[k] = e.Reschedule(handles[k], delay, callback(-id, chainNone, 0, 0))
			}
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		id := i/2 + 1
		k := int(b0>>3) & 3
		d := Time(b1&7)*10 - 10
		ev := modelEvent{at: e.Now() + d, id: id, delay: Time(b1>>6) * 10}
		chained := b0&0x20 != 0
		when := Time(-1)
		switch b0 & 7 {
		case 0:
			if chained {
				ev.chain = chainAfterArg
			}
			e.After(d, callback(id, ev.chain, k, ev.delay))
			m.add(ev)
		case 1:
			if chained {
				ev.chain = chainAfter
				e.After(d, callback(id, ev.chain, k, ev.delay))
			} else {
				e.AfterArg(d, recordArg, &id)
			}
			m.add(ev)
		case 2:
			if chained {
				ev.chain = chainReschedule
			}
			handles[k] = e.Schedule(d, callback(id, ev.chain, k, ev.delay))
			when = m.schedule(k, ev)
		case 3:
			// Mostly in the past: ScheduleAt clamps to now.
			ev.at = e.Now() + d - 40
			handles[k] = e.ScheduleAt(ev.at, callback(id, chainNone, k, 0))
			when = m.schedule(k, ev)
		case 4:
			handles[k].Cancel()
			m.drop(m.slots[k])
		case 5:
			if chained {
				ev.chain = chainReschedule
			}
			handles[k] = e.Reschedule(handles[k], d, callback(id, ev.chain, k, ev.delay))
			when = m.reschedule(k, ev)
		case 6:
			end := e.Now() + Time(b1&31)*5
			e.RunUntil(end)
			m.runUntil(end)
		case 7:
			e.Step()
			m.step(Time(1) << 62)
		}
		if when >= 0 && handles[k].When() != when {
			t.Fatalf("op %d: handle When() = %d, model says %d", i/2, handles[k].When(), when)
		}
		if !slices.Equal(got, m.fired) {
			t.Fatalf("op %d: engine fired %v, model %v", i/2, got, m.fired)
		}
		if e.Now() != m.now || e.Pending() != len(m.q) {
			t.Fatalf("op %d: engine now %d pending %d, model now %d pending %d",
				i/2, e.Now(), e.Pending(), m.now, len(m.q))
		}
	}
	e.Run()
	m.runUntil(Time(1) << 62)
	if !slices.Equal(got, m.fired) {
		t.Fatalf("final run: engine fired %v, model %v", got, m.fired)
	}
}

// TestEngineMatchesModel runs seeded random op strings through the
// differential model.
func TestEngineMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 500; round++ {
		data := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(data)
		engineOrderModel(t, data)
	}
}

// FuzzEngineOrder is the same model under the fuzzer; the named seeds
// under testdata/fuzz pin same-instant ties, cancels and reschedules
// deep in the handle heap, a callback re-arming its own timer, and
// ScheduleAt in the past.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x01, 0x01, 0x07, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		engineOrderModel(t, data)
	})
}
