// Package emu provides the real-time execution substrate for the
// paper's prototype/testbed experiments (§5, Figs 11–12). The paper
// evaluated TAQ both in simulation and as a userspace middlebox (Click
// elements and a C# SharpPcap implementation) on a physical testbed;
// here the same role is played by a wall-clock sim.Runner: the
// simulator's own event heap, paced against the (optionally
// time-scaled) wall clock by one timer, so the *identical* TCP and TAQ
// code that runs in the simulator runs against real time, concurrent
// clients and scheduling jitter. A speedup lets a 200-virtual-second
// experiment finish in a couple of wall seconds.
package emu

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"taq/internal/sim"
)

// Engine is a wall-clock sim.Runner: one event loop with one timer
// queue, like a userspace middlebox. Events wait in a sim.Engine heap,
// keyed by the virtual time they are due; a single wall timer wakes
// for the heap's root and fires every due event under the engine's
// mutex, in (deadline, schedule order). Clients on other goroutines
// reach the network through Post, which takes the same mutex.
//
// A pass or a Post is one batch with one instant: it reads the wall
// clock when it takes the mutex, and Now returns that instant to
// everything that runs under it — one step, one time, as in
// sim.Engine, and one clock read per batch instead of one per call.
// (Re-arming the wake timer at the batch's end reads the clock once
// more.)
//
// Schedule, After, AfterArg, Reschedule and Rand touch the heap, so,
// like everything else the network owns, they are called from a
// callback or inside Post.
type Engine struct {
	mu      sync.Mutex
	start   time.Time
	speedup float64
	// instant is the running batch's Now, or idle between batches.
	// Atomic because Now is also called without the mutex.
	instant atomic.Int64
	sim     *sim.Engine
	// wake runs pass when the heap's root falls due; arm points it.
	wake    *time.Timer
	stopped bool
}

// NewEngine creates a real-time engine. speedup scales virtual time
// against wall time: with speedup 100, one wall second covers 100
// virtual seconds. speedup ≤ 0 means 1.
func NewEngine(seed int64, speedup float64) *Engine {
	if speedup <= 0 {
		speedup = 1
	}
	e := &Engine{start: time.Now(), speedup: speedup, sim: sim.NewEngine(seed)}
	e.instant.Store(idle)
	e.wake = time.AfterFunc(time.Hour, e.pass)
	e.wake.Stop()
	return e
}

// idle marks instant between batches; virtual time is never negative.
const idle = -1

// Now implements sim.Runner: the virtual time elapsed since creation.
// Inside a pass or a Post it is the instant the batch read when it
// took the mutex, the same for every call; a pass fires only events
// due at or before that instant, so a callback never sees Now() before
// its own deadline. Between batches it reads the wall clock. (A
// goroutine calling it outside the lock while a batch runs gets that
// batch's instant.)
func (e *Engine) Now() sim.Time {
	if t := e.instant.Load(); t != idle {
		return sim.Time(t)
	}
	return e.wall()
}

// wall reads the (time-scaled) wall clock.
func (e *Engine) wall() sim.Time {
	return sim.Time(float64(time.Since(e.start)) * e.speedup) //taq:allow noblock the real-time engine's clock; read once per batch, or by Now outside one
}

// begin takes the mutex and fixes the batch's instant; end releases
// both. Every pass and Post runs between the two.
func (e *Engine) begin() sim.Time {
	e.mu.Lock() //taq:allow noblock one mutex serializes every callback and Post by design; lockdiscipline checks its pairing
	now := e.wall()
	e.instant.Store(int64(now))
	return now
}

func (e *Engine) end() {
	e.instant.Store(idle)
	e.mu.Unlock()
}

// Rand implements sim.Runner: the heap's seeded source.
func (e *Engine) Rand() *rand.Rand { return e.sim.Rand() }

// shift turns a delay from Now() into one from the heap's clock, which
// lags the batch's instant (never leads it: a pass advances it only to
// the instant it read), so an event is due delay after the instant of
// the batch that scheduled it.
func (e *Engine) shift(delay sim.Time) sim.Time {
	return max(delay, 0) + e.Now() - e.sim.Now()
}

// wallDelay converts a virtual delay to the wall delay to arm,
// rounding up: the timer must never fire before its virtual deadline.
func wallDelay(delay sim.Time, speedup float64) time.Duration {
	if delay <= 0 {
		return 0
	}
	return time.Duration(math.Ceil(float64(delay) / speedup))
}

// Schedule implements sim.Runner. On a stopped engine the handle comes
// back canceled: nothing would ever fire it.
func (e *Engine) Schedule(delay sim.Time, fn func()) *sim.Timer {
	t := e.sim.Schedule(e.shift(delay), fn)
	if e.halted() {
		t.Cancel()
	}
	return t
}

// After implements sim.Runner.
func (e *Engine) After(delay sim.Time, fn func()) { e.sim.After(e.shift(delay), fn) }

// AfterArg implements sim.Runner.
func (e *Engine) AfterArg(delay sim.Time, fn func(any), arg any) {
	e.sim.AfterArg(e.shift(delay), fn, arg)
}

// Reschedule implements sim.Runner.
func (e *Engine) Reschedule(t *sim.Timer, delay sim.Time, fn func()) *sim.Timer {
	return e.sim.Reschedule(t, e.shift(delay), fn)
}

// halted reports whether Stop has run; the caller holds mu.
func (e *Engine) halted() bool { return e.stopped }

// pass is the wake timer's callback: fire every event due by now, then
// re-arm for the next.
func (e *Engine) pass() {
	now := e.begin()
	defer e.end()
	if !e.stopped {
		e.sim.RunUntil(now)
		e.arm()
	}
}

// arm points the wake timer at the heap's root. It runs with mu held
// at the end of every pass and Post, the only places events are
// scheduled. The delay is measured from the wall clock, not from the
// batch's instant, so a long batch does not make the wake late by its
// own length. A wake left armed over an emptied heap finds nothing due
// and stays disarmed.
func (e *Engine) arm() {
	if at, ok := e.sim.Next(); ok && !e.stopped {
		e.wake.Reset(wallDelay(at-e.wall(), e.speedup))
	}
}

// Post runs fn under the engine lock, serialized with callbacks, as
// one batch: Now() is the same instant throughout fn. Use it for
// scenario setup, for scheduling from another goroutine and for
// reading results.
func (e *Engine) Post(fn func()) {
	e.begin()
	defer e.end()
	fn()
	e.arm()
}

// Stop prevents any further callbacks from running and disarms the
// wake timer. Post keeps working, to read results.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	e.wake.Stop()
}

// RunFor blocks (wall-clock) until the given additional virtual time
// has elapsed.
func (e *Engine) RunFor(virtual sim.Time) {
	time.Sleep(wallDelay(virtual, e.speedup))
}

var _ sim.Runner = (*Engine)(nil)
