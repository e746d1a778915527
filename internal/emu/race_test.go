package emu

import (
	"sync"
	"sync/atomic"
	"testing"

	"taq/internal/sim"
)

// TestEngineConcurrentClients hammers the engine's public surface from
// many goroutines at once — Post (scheduling and canceling inside it),
// Now, and a concurrent Stop — so `go test -race` exercises
// the one-mutex serialization that the emulation layer's correctness
// rests on. The assertions are deliberately weak (no callback after
// Stop returns, no lost Posts before it); the race detector is the
// real oracle here.
func TestEngineConcurrentClients(t *testing.T) {
	e := NewEngine(7, 2000)
	defer e.Stop()

	var fired atomic.Int64
	var stopped atomic.Bool

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timers := make([]*sim.Timer, 0, 32)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					e.Post(func() {
						timers = append(timers, e.Schedule(sim.Time(1+i%7)*sim.Millisecond, func() {
							if stopped.Load() {
								t.Error("callback after Stop returned")
							}
							fired.Add(1)
						}))
					})
				case 1:
					e.Post(func() { fired.Add(1) })
				case 2:
					_ = e.Now()
				case 3:
					// Cancel from inside a callback, racing the timer's
					// own firing path.
					tm := timers[len(timers)-1]
					e.Post(func() { tm.Cancel() })
				}
			}
		}(c)
	}
	wg.Wait()

	// Let some timers fire, then tear down while others are pending.
	e.RunFor(3 * sim.Millisecond)
	e.Stop()
	stopped.Store(true)

	if fired.Load() == 0 {
		t.Fatal("no callbacks ran before Stop")
	}

	// Post still works after Stop (Snapshot uses it to read results),
	// but scheduled callbacks must never fire.
	var snap int64
	e.Post(func() { snap = fired.Load() })
	if snap == 0 {
		t.Fatal("post-stop snapshot saw nothing")
	}
	var tm *sim.Timer
	e.Post(func() { tm = e.Schedule(sim.Millisecond, func() { t.Error("Schedule ran after Stop") }) })
	e.RunFor(2 * sim.Millisecond)
	e.Post(func() { tm.Cancel() })
}
