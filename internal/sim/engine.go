package sim

import (
	"math/rand"
)

// Runner is the clock-and-scheduler interface all protocol code is
// written against. The discrete-event Engine in this package implements
// it with virtual time; internal/emu implements it with (scaled) wall
// time. Callbacks scheduled through a Runner are executed serially: no
// two callbacks of the same Runner ever run concurrently, so protocol
// code needs no locking of its own.
type Runner interface {
	// Now returns the current time.
	Now() Time
	// Schedule arranges for fn to run delay from now. A non-positive
	// delay runs fn as soon as possible, still after the current
	// callback returns. The returned Timer may be used to cancel.
	Schedule(delay Time, fn func()) *Timer
	// Rand returns the runner's random source. Deterministic for the
	// simulation engine given a seed.
	Rand() *rand.Rand
}

// afterRunner is the optional Runner extension behind After: engines
// that implement it can schedule fire-and-forget callbacks without
// allocating a Timer per event.
type afterRunner interface {
	After(delay Time, fn func())
}

// afterArgRunner is the optional Runner extension behind AfterArg:
// engines that implement it carry the argument in the recycled timer
// itself, so the caller needs no closure to hold it.
type afterArgRunner interface {
	AfterArg(delay Time, fn func(any), arg any)
}

// rescheduleRunner is the optional Runner extension behind Reschedule:
// engines that implement it can re-arm a caller-owned Timer in place
// instead of allocating a new one.
type rescheduleRunner interface {
	Reschedule(t *Timer, delay Time, fn func()) *Timer
}

// After schedules fn to run delay from now without returning a handle.
// Use it for fire-and-forget events (packet deliveries, self-armed
// ticks) that are never canceled: runners that support it recycle the
// underlying timer allocation, which is the per-event hot path of every
// experiment sweep. Falls back to Schedule on runners that don't.
//
//taq:hotpath per-event scheduling entry of every packet delivery
func After(r Runner, delay Time, fn func()) {
	if a, ok := r.(afterRunner); ok {
		a.After(delay, fn)
		return
	}
	r.Schedule(delay, fn)
}

// AfterArg schedules fn(arg) to run delay from now without returning a
// handle: After for events that carry a payload (a packet in flight).
// fn is a handler bound once by the caller and arg the per-event state,
// so on runners that support it the event allocates nothing — provided
// arg is pointer-shaped (a pointer, map, chan or func), which boxes
// into the interface without a copy. AfterArg and After events due at
// the same instant fire in the order they were scheduled. Runners
// without the extension get a closure over Schedule.
//
//taq:hotpath per-hop scheduling entry of every packet in flight
func AfterArg(r Runner, delay Time, fn func(any), arg any) {
	if a, ok := r.(afterArgRunner); ok {
		a.AfterArg(delay, fn, arg)
		return
	}
	r.Schedule(delay, func() { fn(arg) }) //taq:allow noalloc fallback for runners without the extension (emu); the simulator never takes it
}

// Reschedule cancels t (if still pending) and arms fn to run delay from
// now, reusing t's allocation when the runner supports it — the
// cancel-then-rearm idiom of RTO and pacing timers without the per-arm
// allocation. t may be nil. The caller must hold the only reference to
// t and must replace it with the returned handle.
//
//taq:hotpath per-event rearm entry of RTO and pacing timers
func Reschedule(r Runner, t *Timer, delay Time, fn func()) *Timer {
	if rr, ok := r.(rescheduleRunner); ok {
		return rr.Reschedule(t, delay, fn)
	}
	t.Cancel()
	return r.Schedule(delay, fn)
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	at  Time
	seq uint64
	fn  func()
	// argFn and arg replace fn on payload-carrying timers (AfterArg).
	argFn func(any)
	arg   any
	// index is the position in the owning engine's event heap, -1 when
	// not queued (fired, canceled, or external).
	index    int
	canceled bool
	// noHandle marks engine-internal fire-and-forget timers (After,
	// AfterArg): no *Timer for them ever escapes, so the engine may
	// recycle the struct through its free list when the event fires.
	noHandle bool
	// eng is the owning Engine, nil for external timers.
	eng *Engine
	// stop is set by the real-time engine to stop the underlying
	// wall-clock timer. It is an interface rather than a func() so the
	// cancel path carries no closure and stays statically resolvable
	// (taqvet's hotpath closure would otherwise have to treat every
	// address-taken thunk in the program as a Cancel callee).
	stop TimerStopper
}

// TimerStopper stops the wall-clock timer backing an external Timer
// handle when that handle is canceled.
type TimerStopper interface {
	StopTimer()
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
	if t.eng != nil && t.index >= 0 {
		t.eng.events.remove(t.index)
		t.index = -1
	}
	if t.stop != nil {
		t.stop.StopTimer()
	}
}

// Canceled reports whether Cancel was called.
func (t *Timer) Canceled() bool { return t != nil && t.canceled }

// ExternalTimer returns a Timer handle for Runner implementations
// outside this package (e.g. the real-time engine in internal/emu).
// The caller is responsible for honoring Canceled before firing.
func ExternalTimer(at Time) *Timer { return &Timer{at: at, index: -1} }

// SetStop registers s to run when the timer is canceled, letting
// external Runners stop their underlying wall-clock timers.
func (t *Timer) SetStop(s TimerStopper) { t.stop = s }

// When returns the virtual time the timer is (or was) due to fire.
func (t *Timer) When() Time { return t.at }

// timerHeap is a concrete 4-ary min-heap over *Timer ordered by
// (at, seq). Replacing container/heap removes the interface-method
// dispatch from the event loop every experiment spins; the 4-ary shape
// halves the sift-down depth for the deep heaps that large flow counts
// produce. seq breaks ties FIFO for determinism.
type timerHeap struct {
	items []*Timer
}

func (h *timerHeap) len() int { return len(h.items) }

// less orders the heap by time, then FIFO among same-time events.
func (h *timerHeap) less(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts t and records its index.
func (h *timerHeap) push(t *Timer) {
	t.index = len(h.items)
	h.items = append(h.items, t) //taq:allow noalloc amortized heap growth; capacity is retained across events
	h.siftUp(t.index)
}

// pop removes and returns the earliest timer.
func (h *timerHeap) pop() *Timer {
	t := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[0].index = 0
	h.items[last] = nil
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	t.index = -1
	return t
}

// remove deletes the timer at index i.
func (h *timerHeap) remove(i int) {
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		h.items[i].index = i
	}
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.fix(i)
	}
}

// fix restores heap order after the key at index i changed.
func (h *timerHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *timerHeap) siftUp(i int) {
	t := h.items[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h.items[parent]
		if !h.less(t, p) {
			break
		}
		h.items[i] = p
		p.index = i
		i = parent
	}
	h.items[i] = t
	t.index = i
}

func (h *timerHeap) siftDown(i int) {
	t := h.items[i]
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(h.items[c], h.items[best]) {
				best = c
			}
		}
		if !h.less(h.items[best], t) {
			break
		}
		h.items[i] = h.items[best]
		h.items[i].index = i
		i = best
	}
	h.items[i] = t
	t.index = i
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; all simulation work happens on the goroutine that
// calls Run/RunUntil/Step. Concurrency in this codebase lives strictly
// above the engine: parallel sweeps (experiments.RunPoints) give every
// worker its own Engine and never share one across goroutines.
type Engine struct {
	now    Time
	seq    uint64
	events timerHeap
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
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now implements Runner.
func (e *Engine) Now() Time { return e.now }

// Rand implements Runner.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule implements Runner.
func (e *Engine) Schedule(delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times
// in the past are clamped to now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Timer {
	t := e.alloc(at, fn)
	e.events.push(t)
	return t
}

// After schedules fn to run delay from now, fire-and-forget: no handle
// is returned, and the timer's allocation is recycled when it fires.
// This is the allocation-free path for the per-packet events that
// dominate simulation runs. Prefer the package-level sim.After when
// holding a Runner interface.
//
//taq:hotpath engine fast path: recycled fire-and-forget timers
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	t := e.alloc(e.now+delay, fn)
	t.noHandle = true
	e.events.push(t)
}

// AfterArg schedules fn(arg) to run delay from now, fire-and-forget
// like After, with the payload stored in the recycled timer instead of
// a closure. See the package-level sim.AfterArg for the contract on
// arg.
//
//taq:hotpath engine fast path: recycled payload-carrying timers
func (e *Engine) AfterArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	t := e.alloc(e.now+delay, nil)
	t.argFn, t.arg = fn, arg
	t.noHandle = true
	e.events.push(t)
}

// Reschedule cancels t (if pending) and arms fn at delay from now,
// reusing t's allocation. t must have been created by this engine (or
// be nil) and the caller must hold its only reference; the returned
// handle replaces it. This is the allocation-free path for the
// cancel-then-rearm churn of RTO, pacing and scan timers.
//
//taq:hotpath engine fast path: in-place timer rearm
func (e *Engine) Reschedule(t *Timer, delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	if t == nil || t.eng != e {
		// External or foreign timers can't be reused in place.
		t.Cancel()
		return e.ScheduleAt(e.now+delay, fn)
	}
	t.at = e.now + delay
	t.seq = e.seq
	e.seq++
	t.fn = fn
	t.canceled = false
	t.noHandle = false
	if t.index >= 0 {
		e.events.fix(t.index)
	} else {
		e.events.push(t)
	}
	return t
}

// alloc takes a Timer from the free list or the heap allocator.
func (e *Engine) alloc(at Time, fn func()) *Timer {
	if at < e.now {
		at = e.now
	}
	var t *Timer
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.canceled = false
		t.noHandle = false
	} else {
		t = &Timer{eng: e} //taq:allow noalloc free-list refill; fired noHandle timers recycle
	}
	t.at = at
	t.seq = e.seq
	t.fn = fn
	e.seq++
	return t
}

// recycle returns an engine-exclusive timer struct to the free list.
func (e *Engine) recycle(t *Timer) {
	t.fn, t.argFn, t.arg = nil, nil, nil
	e.free = append(e.free, t)
}

// Pending returns the number of live scheduled events. Canceled events
// are unlinked eagerly by Cancel, so they are never counted.
func (e *Engine) Pending() int { return e.events.len() }

// Step executes the next event, if any, advancing the clock to its
// time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	t := e.events.pop()
	fn, argFn, arg := t.fn, t.argFn, t.arg
	t.fn = nil
	e.now = t.at
	if t.noHandle {
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
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ end, then sets the clock to end.
// Events scheduled after end remain pending.
func (e *Engine) RunUntil(end Time) {
	for e.events.len() > 0 {
		// Peek; heap root is the earliest event.
		if e.events.items[0].at > end {
			break
		}
		e.Step()
	}
	if e.now < end {
		e.now = end
	}
}

var _ Runner = (*Engine)(nil)
