// Package emu provides the real-time execution substrate for the
// paper's prototype/testbed experiments (§5, Figs 11–12). The paper
// evaluated TAQ both in simulation and as a userspace middlebox (Click
// elements and a C# SharpPcap implementation) on a physical testbed;
// here the same role is played by a wall-clock implementation of
// sim.Runner, so the *identical* TCP and TAQ code that runs in the
// simulator runs under real concurrent timers, packet races and
// scheduling jitter — optionally time-scaled so a 200-virtual-second
// experiment finishes in a couple of wall seconds.
package emu

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"taq/internal/sim"
)

// Engine is a wall-clock sim.Runner. All callbacks are serialized by
// an internal mutex (protocol code is written for serialized
// execution); the concurrency is real — every timer fires on its own
// goroutine and races to acquire the lock, exactly like packet and
// timer events racing in a userspace middlebox.
type Engine struct {
	mu      sync.Mutex
	start   time.Time
	speedup float64
	rng     *rand.Rand
	stopped bool

	// minNow is a floor on the virtual clock: the highest timer
	// deadline whose callback has started. The wall→virtual conversion
	// rounds, so a callback's own Now() could otherwise read a hair
	// *before* the deadline it fired for, and timeout logic comparing
	// Now() against deadlines would fire early (acute at high speedup,
	// where one wall nanosecond is many virtual ones). Written under
	// mu; read lock-free by Now.
	minNow atomic.Int64

	// tmu guards timers, the set of armed wall timers, nil once Stop
	// has run. A separate mutex because Schedule runs while callers
	// hold mu (callbacks schedule their successors) and mu is not
	// reentrant.
	tmu    sync.Mutex
	timers map[*wallNode]struct{}
}

// wallNode tracks one armed time.AfterFunc so Stop can disarm it. The
// node, not the *time.Timer, keys the set: the timer value is assigned
// after AfterFunc returns, and the callback (which may run
// immediately) needs a stable identity to deregister.
type wallNode struct{ t *time.Timer }

// NewEngine creates a real-time engine. speedup scales virtual time
// against wall time: with speedup 100, one wall second covers 100
// virtual seconds. speedup ≤ 0 means 1.
func NewEngine(seed int64, speedup float64) *Engine {
	if speedup <= 0 {
		speedup = 1
	}
	return &Engine{
		start:   time.Now(),
		speedup: speedup,
		rng:     rand.New(rand.NewSource(seed)),
		timers:  make(map[*wallNode]struct{}),
	}
}

// Now implements sim.Runner: the virtual time elapsed since creation,
// clamped so it never reads before the deadline of a callback that has
// already started (see minNow).
func (e *Engine) Now() sim.Time {
	now := sim.Time(float64(time.Since(e.start)) * e.speedup)
	if floor := sim.Time(e.minNow.Load()); floor > now {
		return floor
	}
	return now
}

// Rand implements sim.Runner. Only call from scheduled callbacks or
// Post-ed functions (it is guarded by the engine lock there).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// wallDelay converts a virtual delay to the wall delay to arm,
// rounding up: the timer must never fire before its virtual deadline.
// Truncating (the old code) underslept by up to one wall nanosecond —
// up to `speedup` virtual nanoseconds — so a callback could run with
// the virtual clock still short of its deadline.
func wallDelay(delay sim.Time, speedup float64) time.Duration {
	if delay <= 0 {
		return 0
	}
	return time.Duration(math.Ceil(float64(delay) / speedup))
}

// Schedule implements sim.Runner: fn runs after the virtual delay,
// serialized with all other callbacks. On a stopped engine it arms
// nothing and returns a canceled handle.
//
//taq:allow(func) lockdiscipline timers is guarded by tmu, not mu; the analyzer models one mutex per struct
func (e *Engine) Schedule(delay sim.Time, fn func()) *sim.Timer {
	if delay < 0 {
		delay = 0
	}
	tm := sim.ExternalTimer(e.Now() + delay)
	node := &wallNode{}
	// Holding tmu across AfterFunc closes the arm/registration race:
	// the callback's first act is to take tmu, so it cannot observe a
	// nil node.t or a set the node was never added to, even when the
	// wall delay is zero.
	e.tmu.Lock()
	if e.timers == nil { // stopped: nothing would disarm a timer armed now
		e.tmu.Unlock()
		tm.Cancel()
		return tm
	}
	node.t = time.AfterFunc(wallDelay(delay, e.speedup), func() { e.fire(node, tm, fn) })
	e.timers[node] = struct{}{}
	e.tmu.Unlock()
	tm.SetStop(wallTimer{e: e, node: node})
	return tm
}

// fire is the armed timer's callback: deregister, then run fn under
// the engine lock with the virtual clock clamped to the deadline.
func (e *Engine) fire(node *wallNode, tm *sim.Timer, fn func()) {
	e.tmu.Lock()
	delete(e.timers, node)
	e.tmu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped || tm.Canceled() {
		return
	}
	// The timer hardware ran at wall resolution; the virtual deadline
	// may still be a rounding error ahead. Advance the clock floor so
	// fn (and everything after it) observes Now() ≥ the deadline it
	// fired for. Monotone: deadlines of already-started callbacks only
	// ratchet upward.
	if dl := int64(tm.When()); dl > e.minNow.Load() {
		e.minNow.Store(dl)
	}
	fn()
}

// wallTimer adapts an armed wall timer to sim.TimerStopper.
type wallTimer struct {
	e    *Engine
	node *wallNode
}

// StopTimer implements sim.TimerStopper: disarm and deregister.
//
//taq:allow(func) noblock tmu is the engine's own short-critical-section timer lock, the same sanctioned exception NoblockAllow grants Engine methods
func (w wallTimer) StopTimer() {
	w.node.t.Stop()
	w.e.tmu.Lock()
	delete(w.e.timers, w.node)
	w.e.tmu.Unlock()
}

// Post runs fn under the engine lock, serialized with callbacks. Use
// it for scenario setup and for reading results.
func (e *Engine) Post(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

// Stop prevents any further callbacks from running, disarms every
// outstanding wall timer and lets Schedule arm no more. Without the
// disarm, already-armed time.AfterFunc timers stayed alive until their
// natural deadline just to bail on the stopped flag — minutes-long
// soaks accumulated thousands of runtime timers and their firing
// goroutines.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.tmu.Lock()
	for node := range e.timers {
		node.t.Stop()
	}
	e.timers = nil
	e.tmu.Unlock()
}

// outstandingTimers reports how many wall timers are armed (tests).
func (e *Engine) outstandingTimers() int {
	e.tmu.Lock()
	n := len(e.timers)
	e.tmu.Unlock()
	return n
}

// RunFor blocks (wall-clock) until the given additional virtual time
// has elapsed.
func (e *Engine) RunFor(virtual sim.Time) {
	time.Sleep(wallDelay(virtual, e.speedup))
}

var _ sim.Runner = (*Engine)(nil)
