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

// TestFireClampsNowToDeadline drives the firing path directly: even if
// the wall timer fires with the wall-derived virtual clock still short
// of the deadline (rounding, or a hypothetical early wake), the
// callback must observe Now() at or past the deadline it fired for.
func TestFireClampsNowToDeadline(t *testing.T) {
	e := NewEngine(1, 1000)
	// A deadline far in the virtual future: the wall clock cannot have
	// covered it yet, so only the clamp can satisfy the invariant.
	deadline := e.Now() + 10*sim.Second
	tm := sim.ExternalTimer(deadline)
	var got sim.Time
	e.fire(&wallNode{t: time.NewTimer(time.Hour)}, tm, func() { got = e.Now() })
	if got < deadline {
		t.Fatalf("callback observed Now()=%v before its deadline %v", got, deadline)
	}
	// The floor is monotone: an older timer's deadline must not drag
	// Now() back.
	past := sim.ExternalTimer(deadline - 5*sim.Second)
	e.fire(&wallNode{t: time.NewTimer(time.Hour)}, past, func() { got = e.Now() })
	if got < deadline {
		t.Fatalf("older deadline dragged Now() back to %v (floor was %v)", got, deadline)
	}
}

// TestScheduleObservesDeadline is the end-to-end form at speedup 1000:
// every callback checks its own clock against its deadline. With the
// truncating conversion this raced real timer jitter; with round-up +
// clamp it must hold unconditionally.
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

// TestStopDisarmsOutstandingTimers is the leak regression test:
// Engine.Stop used to leave armed time.AfterFunc timers running to
// their natural deadlines (minutes out, for scan and expiry timers),
// accumulating runtime timers across a soak. Stop must disarm them.
func TestStopDisarmsOutstandingTimers(t *testing.T) {
	e := NewEngine(1, 1)
	fired := make(chan struct{}, 64)
	e.Post(func() {
		for i := 0; i < 50; i++ {
			e.Schedule(sim.Time(30+i)*sim.Second, func() { fired <- struct{}{} })
		}
	})
	if n := e.outstandingTimers(); n != 50 {
		t.Fatalf("outstanding timers = %d, want 50", n)
	}
	e.Stop()
	if n := e.outstandingTimers(); n != 0 {
		t.Fatalf("outstanding timers after Stop = %d, want 0", n)
	}
	select {
	case <-fired:
		t.Fatal("timer fired after Stop")
	case <-time.After(50 * time.Millisecond):
	}
	// Nothing could disarm a timer armed now: Schedule must arm none.
	if tm := e.Schedule(3600*sim.Second, func() {}); !tm.Canceled() {
		t.Error("Schedule after Stop returned a live handle")
	}
	if n := e.outstandingTimers(); n != 0 {
		t.Fatalf("outstanding timers after Schedule on a stopped engine = %d, want 0", n)
	}
}

// TestCancelDeregistersTimer: a canceled timer must leave the armed
// set immediately, not linger until its deadline.
func TestCancelDeregistersTimer(t *testing.T) {
	e := NewEngine(1, 1)
	defer e.Stop()
	var tm *sim.Timer
	e.Post(func() { tm = e.Schedule(3600*sim.Second, func() {}) })
	if n := e.outstandingTimers(); n != 1 {
		t.Fatalf("outstanding timers = %d, want 1", n)
	}
	e.Post(func() { tm.Cancel() })
	if n := e.outstandingTimers(); n != 0 {
		t.Fatalf("outstanding timers after Cancel = %d, want 0", n)
	}
}

// TestFiredTimerDeregisters: a timer that has fired must leave the
// armed set on its own.
func TestFiredTimerDeregisters(t *testing.T) {
	e := NewEngine(1, 1000)
	defer e.Stop()
	done := make(chan struct{})
	e.Post(func() {
		e.Schedule(10*sim.Millisecond, func() { close(done) })
	})
	<-done
	// fire deregisters before taking the engine lock, so by the time
	// the callback has run the set is already clean.
	if n := e.outstandingTimers(); n != 0 {
		t.Fatalf("outstanding timers after fire = %d, want 0", n)
	}
}
