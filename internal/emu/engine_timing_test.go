package emu

import (
	"testing"
	"time"

	"taq/internal/sim"
)

// TestWallDelayNeverUndersleeps is the regression test for the
// truncated wall-delay conversion: the old code computed
// time.Duration(float64(delay)/speedup), rounding *down*, so the wall
// timer could fire up to one wall nanosecond — `speedup` virtual
// nanoseconds — before its virtual deadline. At speedup 1000 a delay
// of 10s+1ns truncated to exactly 10ms of wall sleep, which covers
// only 10s of virtual time: the callback ran with the virtual clock
// strictly before the deadline. The rounded-up conversion must always
// cover the full virtual delay.
func TestWallDelayNeverUndersleeps(t *testing.T) {
	cases := []struct {
		delay   sim.Time
		speedup float64
	}{
		{1, 1000},
		{999, 1000},
		{10*sim.Second + 1, 1000}, // fails pre-fix: truncates to 10ms wall = 10s virtual
		{sim.Second + 1, 7},
		{123456789, 33.5},
		{3 * sim.Millisecond, 1e6},
		{sim.Time(1<<40 + 1), 4096},
	}
	for _, c := range cases {
		wall := wallDelay(c.delay, c.speedup)
		if covered := float64(wall) * c.speedup; covered < float64(c.delay) {
			t.Errorf("wallDelay(%v, %g) = %v covers only %.0f virtual ns, want ≥ %d",
				c.delay, c.speedup, wall, covered, int64(c.delay))
		}
		// Sanity: the round-up must not oversleep by more than one
		// wall nanosecond's worth of virtual time.
		if slack := float64(wall)*c.speedup - float64(c.delay); slack > c.speedup+1 {
			t.Errorf("wallDelay(%v, %g) = %v oversleeps by %.0f virtual ns",
				c.delay, c.speedup, wall, slack)
		}
	}
}

// TestFireClampsNowToDeadline drives the firing path directly: a wake
// that comes early (here a pass run by hand right after scheduling)
// must not run a callback whose deadline the clock has not reached. A
// pass fires only events due by the Now it read, so every callback
// observes Now() at or past the deadline it fired for.
func TestFireClampsNowToDeadline(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	var tm *sim.Timer
	var got sim.Time
	fired := make(chan struct{})
	e.Post(func() {
		tm = e.Schedule(100*sim.Second, func() { got = e.Now(); close(fired) })
	})
	e.pass()
	select {
	case <-fired:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the callback")
	}
	if got < tm.When() {
		t.Fatalf("callback observed Now()=%v before its deadline %v", got, tm.When())
	}
}

// TestScheduleObservesDeadline is the end-to-end form at speedup 1000:
// every callback checks its own clock against its deadline. With the
// truncating conversion this raced real timer jitter; with the round-up
// and a pass that fires only due events it must hold unconditionally.
func TestScheduleObservesDeadline(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	type obsv struct {
		deadline, now sim.Time
	}
	results := make(chan obsv, 64)
	e.Post(func() {
		for i := 1; i <= 64; i++ {
			d := sim.Time(i)*137*sim.Millisecond + 1 // odd remainders force rounding
			// The deadline Schedule stamps is e.Now()+d taken *after*
			// this capture, so the real deadline is ≥ this bound.
			deadline := e.Now() + d
			e.Schedule(d, func() { results <- obsv{deadline, e.Now()} })
		}
	})
	for i := 0; i < 64; i++ {
		select {
		case r := <-results:
			if r.now < r.deadline {
				t.Fatalf("callback saw Now()=%v before deadline %v", r.now, r.deadline)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("timed out waiting for callbacks")
		}
	}
}

// wakeArmed reports whether e's wake timer was armed, disarming it.
func wakeArmed(e *Engine) bool { return e.wake.Stop() }

// pending reports how many events e holds.
func pending(e *Engine) (n int) {
	e.Post(func() { n = e.sim.Pending() })
	return n
}

// TestStopDisarmsOutstandingTimers is the leak regression test: Stop
// must leave no wall timer armed, so a stopped engine pins no runtime
// timer and fires nothing, however many events it still holds.
func TestStopDisarmsOutstandingTimers(t *testing.T) {
	e := NewEngine(1, 1000)
	fired := make(chan struct{}, 64)
	e.Post(func() {
		for i := 0; i < 50; i++ {
			e.Schedule(sim.Time(30+i)*sim.Second, func() { fired <- struct{}{} })
		}
	})
	if n := pending(e); n != 50 {
		t.Fatalf("pending events = %d, want 50", n)
	}
	e.Stop()
	if wakeArmed(e) {
		t.Fatal("wake timer still armed after Stop")
	}
	select {
	case <-fired:
		t.Fatal("timer fired after Stop")
	case <-time.After(150 * time.Millisecond):
	}
	// Nothing would fire an event scheduled now: Schedule arms nothing
	// and hands back a canceled handle.
	var tm *sim.Timer
	e.Post(func() { tm = e.Schedule(sim.Second, func() {}) })
	if !tm.Canceled() {
		t.Error("Schedule after Stop returned a live handle")
	}
	if wakeArmed(e) {
		t.Fatal("Schedule on a stopped engine armed the wake timer")
	}
}

// TestCancelDeregistersTimer: Cancel must take the event out of the
// queue immediately, not leave it to linger until its deadline.
func TestCancelDeregistersTimer(t *testing.T) {
	e := NewEngine(1, 1)
	defer e.Stop()
	var tm *sim.Timer
	e.Post(func() { tm = e.Schedule(3600*sim.Second, func() {}) })
	if n := pending(e); n != 1 {
		t.Fatalf("pending events = %d, want 1", n)
	}
	e.Post(func() { tm.Cancel() })
	if n := pending(e); n != 0 {
		t.Fatalf("pending events after Cancel = %d, want 0", n)
	}
}

// TestFiredTimerDeregisters: an event that has fired must leave the
// queue on its own.
func TestFiredTimerDeregisters(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	done := make(chan struct{})
	e.Post(func() {
		e.Schedule(10*sim.Millisecond, func() { close(done) })
	})
	<-done
	if n := pending(e); n != 0 {
		t.Fatalf("pending events after fire = %d, want 0", n)
	}
}

// TestPostOrderIsScheduleOrder: events due at the same instant fire in
// the order they were scheduled. Callbacks scheduled in one Post with
// one delay are due in schedule order, so they must fire in it — one
// heap with one wake, not a timer goroutine each racing for the lock.
func TestPostOrderIsScheduleOrder(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	const n = 64
	var order []int
	done := make(chan struct{})
	e.Post(func() {
		for i := 0; i < n; i++ {
			e.Schedule(sim.Millisecond, func() {
				order = append(order, i)
				if len(order) == n {
					close(done)
				}
			})
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for callbacks")
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("fired in order %v, want schedule order", order)
		}
	}
}

// TestRunnerEventsAllocateNothing: once the heap and its free list are
// warm, a fire-and-forget event (closure or pointer payload) and the
// rearm of a held handle allocate nothing on the wall-clock engine
// either. Events are fired the way a pass fires them.
func TestRunnerEventsAllocateNothing(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	e.Post(func() {
		fn, argFn, payload := func() {}, func(any) {}, new(int)
		fire := func() { e.sim.RunUntil(e.Now()) }
		if n := testing.AllocsPerRun(1000, func() { e.After(0, fn); fire() }); n != 0 {
			t.Errorf("After: %v allocs/op, want 0", n)
		}
		if n := testing.AllocsPerRun(1000, func() { e.AfterArg(0, argFn, payload); fire() }); n != 0 {
			t.Errorf("AfterArg: %v allocs/op, want 0", n)
		}
		tm := e.Schedule(sim.Second, fn)
		if n := testing.AllocsPerRun(1000, func() { tm = e.Reschedule(tm, sim.Second, fn) }); n != 0 {
			t.Errorf("Reschedule: %v allocs/op, want 0", n)
		}
	})
}

// TestNowIsOneInstantPerBatch pins the clock contract: a Post or a
// pass reads the wall clock once, and Now returns that instant to
// everything under it. Successive batches never go backwards, Now
// outside any batch advances with the wall clock, and a pass's
// callbacks see the instant it fired them at — never before their
// deadlines.
func TestNowIsOneInstantPerBatch(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()

	var prev sim.Time
	for i := 0; i < 3; i++ {
		e.Post(func() {
			now := e.Now()
			if now < prev {
				t.Fatalf("Post %d read %v, an earlier Post read %v", i, now, prev)
			}
			// A millisecond of wall time is a virtual second here: a
			// per-call clock read would move.
			for spin := time.Now().Add(time.Millisecond); time.Now().Before(spin); {
				if got := e.Now(); got != now {
					t.Fatalf("Now moved within one Post: %v then %v", now, got)
				}
			}
			prev = now
		})
	}

	a := e.Now()
	time.Sleep(2 * time.Millisecond)
	if b := e.Now(); a < prev || b <= a {
		t.Fatalf("Now outside a Post read %v then %v after the last Post's %v; want it to advance", a, b, prev)
	}

	type obsv struct{ deadline, first, last sim.Time }
	const n = 16
	results := make(chan obsv, n)
	e.Post(func() {
		for i := 1; i <= n; i++ {
			var tm *sim.Timer
			tm = e.Schedule(sim.Time(i%4)*50*sim.Millisecond+1, func() {
				first := e.Now()
				for spin := time.Now().Add(100 * time.Microsecond); time.Now().Before(spin); {
				}
				results <- obsv{tm.When(), first, e.Now()}
			})
		}
	})
	for i := 0; i < n; i++ {
		select {
		case r := <-results:
			if r.first < r.deadline {
				t.Fatalf("callback saw Now()=%v before its deadline %v", r.first, r.deadline)
			}
			if r.last != r.first {
				t.Fatalf("Now moved within one callback: %v then %v", r.first, r.last)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("timed out waiting for callbacks")
		}
	}
}
