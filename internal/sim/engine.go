package sim

import (
	"math/bits"
	"math/rand"
)

// Runner is the clock-and-scheduler interface all protocol code is
// written against. The discrete-event Engine in this package implements
// it with virtual time; internal/emu paces an Engine against the
// (scaled) wall clock. Callbacks scheduled through a Runner are
// executed serially: no two callbacks of the same Runner ever run
// concurrently, so protocol code needs no locking of its own.
type Runner interface {
	// Now returns the current time.
	Now() Time
	// Schedule arranges for fn to run delay from now. A non-positive
	// delay runs fn as soon as possible, still after the current
	// callback returns. The returned Timer may be used to cancel.
	Schedule(delay Time, fn func()) *Timer
	// After schedules fn to run delay from now without returning a
	// handle: the fire-and-forget form for events that are never
	// canceled (packet deliveries, self-armed ticks). Its Timer is
	// recycled when it fires, so the event allocates nothing.
	After(delay Time, fn func())
	// AfterArg schedules fn(arg) to run delay from now, fire-and-forget
	// like After: fn is a handler bound once by the caller and arg the
	// per-event state (a packet in flight), so the event allocates
	// nothing provided arg is pointer-shaped (a pointer, map, chan or
	// func), which boxes into the interface without a copy. AfterArg and
	// After events due at the same instant fire in the order they were
	// scheduled.
	AfterArg(delay Time, fn func(any), arg any)
	// Reschedule cancels t (if still pending) and arms fn to run delay
	// from now, reusing t's allocation: the cancel-then-rearm idiom of
	// RTO and pacing timers without the per-arm allocation. t may be
	// nil. The caller must hold the only reference to t and must
	// replace it with the returned handle.
	Reschedule(t *Timer, delay Time, fn func()) *Timer
	// Rand returns the runner's random source. Deterministic for the
	// simulation engine given a seed.
	Rand() *rand.Rand
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	// at is when the timer is (or was) due, for When; the heap keeps its
	// own copy of the key.
	at Time
	fn func()
	// argFn and arg replace fn on payload-carrying timers (AfterArg).
	argFn func(any)
	arg   any
	// index is the position in the owning engine's handle heap, -1 when
	// not queued there (fired, canceled, or fire-and-forget).
	index    int
	canceled bool
	eng      *Engine // the owning engine
}

// Cancel prevents the timer's callback from running. The callback
// closure is released immediately (so canceled timers don't pin memory)
// and the event is unlinked from its engine's heap. Canceling an
// already-fired or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t == nil || t.canceled {
		return
	}
	t.canceled = true
	t.fn = nil
	if t.index >= 0 {
		t.eng.timers.remove(t.index)
		t.index = -1
	}
}

// Canceled reports whether Cancel was called.
func (t *Timer) Canceled() bool { return t != nil && t.canceled }

// When returns the virtual time the timer is (or was) due to fire.
func (t *Timer) When() Time { return t.at }

// heapEntry is one queued event with its (at, seq) key inline, so a
// sift compares keys inside the array instead of loading each Timer.
type heapEntry struct {
	at  Time
	seq uint64
	t   *Timer
}

// before returns 1 if a's key orders before b's and 0 otherwise: the
// borrow out of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq),
// at the high word. Reading at as unsigned is exact only because every
// key is ≥ 0: Engine.entry clamps each key to now, and now starts at 0
// and never decreases. Keys are unique (seq is), so there are no ties.
func before(a, b *heapEntry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// timerHeap is a concrete 4-ary min-heap of events ordered by
// (at, seq); seq breaks ties FIFO for determinism. The child choice in
// siftDown is branch-free, since which child is least is what a branch
// predictor cannot guess. With indexed set the heap keeps each
// Timer.index current for Cancel and Reschedule; without it, it never
// touches the Timers it holds.
type timerHeap struct {
	items   []heapEntry
	indexed bool
}

// push inserts ent.
func (h *timerHeap) push(ent heapEntry) {
	h.items = append(h.items, ent) //taq:allow noalloc amortized heap growth; capacity is retained across events
	h.siftUp(len(h.items) - 1)
}

// pop removes and returns the earliest entry.
func (h *timerHeap) pop() heapEntry {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = heapEntry{}
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	if h.indexed {
		top.t.index = -1
	}
	return top
}

// remove deletes the entry at index i.
func (h *timerHeap) remove(i int) {
	last := len(h.items) - 1
	moved := h.items[last]
	h.items[last] = heapEntry{}
	h.items = h.items[:last]
	if i < last {
		h.items[i] = moved
		h.fix(i)
	}
}

// fix restores heap order after the key at index i changed.
func (h *timerHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *timerHeap) siftUp(i int) {
	items := h.items
	ent := items[i]
	for i > 0 {
		parent := (i - 1) / 4
		if before(&ent, &items[parent]) == 0 {
			break
		}
		items[i] = items[parent]
		if h.indexed {
			items[i].t.index = i
		}
		i = parent
	}
	items[i] = ent
	if h.indexed {
		ent.t.index = i
	}
}

func (h *timerHeap) siftDown(i int) {
	items := h.items
	n := len(items)
	ent := items[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// best moves to a later child only when that child orders
		// before it: the borrow, negated, is an all-ones mask.
		best := first
		if kids := items[first:min(first+4, n)]; len(kids) == 4 {
			// A full node: two pairs, then their winners.
			a := before(&kids[1], &kids[0])
			b := 2 + before(&kids[3], &kids[2])
			a += (b - a) & -before(&kids[b], &kids[a])
			best += a
		} else {
			for c := first + 1; c < first+len(kids); c++ {
				best += (c - best) & -before(&items[c], &items[best])
			}
		}
		if before(&items[best], &ent) == 0 {
			break
		}
		items[i] = items[best]
		if h.indexed {
			items[i].t.index = i
		}
		i = best
	}
	items[i] = ent
	if h.indexed {
		ent.t.index = i
	}
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; all simulation work happens on the goroutine that
// calls Run/RunUntil/Step. Concurrency in this codebase lives strictly
// above the engine: parallel sweeps (experiments.RunPoints) give every
// worker its own Engine and never share one across goroutines.
type Engine struct {
	now Time
	seq uint64
	// events holds the fire-and-forget timers (After, AfterArg), which
	// are never canceled or moved, so the heap keeps no index for them;
	// timers holds the handle timers (Schedule, Reschedule), indexed for
	// Cancel and Reschedule. Both draw keys from the one seq, so taking
	// the earlier root fires events in the order one heap would.
	events, timers timerHeap
	// free recycles Timer structs. Only timers the engine exclusively
	// owns ever enter it: fire-and-forget (After, AfterArg) timers on
	// firing, and structs handed back through Reschedule are reused
	// directly. Timers returned by Schedule may still be referenced by
	// callers after they fire, so they are never recycled — handing
	// their struct to an unrelated event would let a stale Cancel kill
	// it.
	free []*Timer
	rng  *rand.Rand
	// Processed counts callbacks executed, for instrumentation.
	Processed uint64
}

// NewEngine returns an engine whose clock starts at zero and whose
// random source is seeded with seed (so runs are reproducible).
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), timers: timerHeap{indexed: true}}
}

// Now implements Runner.
func (e *Engine) Now() Time { return e.now }

// Rand implements Runner.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule implements Runner.
func (e *Engine) Schedule(delay Time, fn func()) *Timer {
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times
// in the past are clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Timer {
	t := e.alloc()
	t.fn = fn
	ent := e.entry(at, t)
	t.at = ent.at
	e.timers.push(ent)
	return t
}

// After implements Runner: the timer's allocation is recycled when it
// fires, the allocation-free path for the per-packet events that
// dominate simulation runs.
//
//taq:hotpath engine fast path: recycled fire-and-forget timers
func (e *Engine) After(delay Time, fn func()) {
	t := e.alloc()
	t.fn = fn
	e.events.push(e.entry(e.now+delay, t))
}

// AfterArg implements Runner, with the payload stored in the recycled
// timer instead of a closure.
//
//taq:hotpath engine fast path: recycled payload-carrying timers
func (e *Engine) AfterArg(delay Time, fn func(any), arg any) {
	t := e.alloc()
	t.argFn, t.arg = fn, arg
	e.events.push(e.entry(e.now+delay, t))
}

// Reschedule implements Runner. A t from another engine cannot be
// reused in place, so it is canceled and a fresh handle returned.
//
//taq:hotpath engine fast path: in-place timer rearm
func (e *Engine) Reschedule(t *Timer, delay Time, fn func()) *Timer {
	if t == nil || t.eng != e {
		t.Cancel()
		return e.ScheduleAt(e.now+delay, fn)
	}
	ent := e.entry(e.now+delay, t)
	t.at = ent.at
	t.fn = fn
	t.canceled = false
	if t.index >= 0 {
		e.timers.items[t.index] = ent
		e.timers.fix(t.index)
	} else {
		e.timers.push(ent)
	}
	return t
}

// entry keys t at at, clamped to now (which also catches a delay that
// overflowed), behind every key handed out before it.
func (e *Engine) entry(at Time, t *Timer) heapEntry {
	if at < e.now {
		at = e.now
	}
	seq := e.seq
	e.seq++
	return heapEntry{at: at, seq: seq, t: t}
}

// alloc takes a Timer from the free list or the heap allocator.
func (e *Engine) alloc() *Timer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.canceled = false
		return t
	}
	return &Timer{eng: e, index: -1} //taq:allow noalloc free-list refill; fired fire-and-forget timers recycle
}

// recycle returns an engine-exclusive timer struct to the free list.
func (e *Engine) recycle(t *Timer) {
	t.fn, t.argFn, t.arg = nil, nil, nil
	e.free = append(e.free, t)
}

// Next returns the time of the earliest pending event; ok is false
// when none is pending.
func (e *Engine) Next() (at Time, ok bool) {
	if h := e.next(); h != nil {
		return h.items[0].at, true
	}
	return 0, false
}

// Pending returns the number of live scheduled events. Canceled events
// are unlinked eagerly by Cancel, so they are never counted.
func (e *Engine) Pending() int { return len(e.events.items) + len(e.timers.items) }

// next returns the heap whose root fires first, nil when both are
// empty.
func (e *Engine) next() *timerHeap {
	ev, tm := &e.events, &e.timers
	if len(tm.items) > 0 && (len(ev.items) == 0 || before(&tm.items[0], &ev.items[0]) == 1) {
		return tm
	}
	if len(ev.items) > 0 {
		return ev
	}
	return nil
}

// Step executes the next event, if any, advancing the clock to its
// time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	h := e.next()
	if h == nil {
		return false
	}
	e.fire(h)
	return true
}

// fire pops h's root and runs its callback.
func (e *Engine) fire(h *timerHeap) {
	ent := h.pop()
	t := ent.t
	fn, argFn, arg := t.fn, t.argFn, t.arg
	t.fn = nil
	e.now = ent.at
	if h == &e.events {
		// No handle escaped, so the struct is exclusively ours again;
		// recycling before the callback lets fn's own scheduling reuse
		// it immediately.
		e.recycle(t)
	}
	e.Processed++
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ end, then sets the clock to end.
// Events scheduled after end remain pending.
func (e *Engine) RunUntil(end Time) {
	for h := e.next(); h != nil && h.items[0].at <= end; h = e.next() {
		e.fire(h)
	}
	if e.now < end {
		e.now = end
	}
}

var _ Runner = (*Engine)(nil)
