// Package noblock exercises the blocking-operation checks and their
// one exemption, a //taq:allow noblock line (allowedEngine's lock
// acquisition is not reported).
package noblock

import (
	"sync"
	"time"
)

// E bundles a mutex and a channel.
type E struct {
	mu sync.Mutex
	ch chan int
}

func work() {}

// Hot is the fixture root.
//
//taq:hotpath covers every blocking source
func Hot(e *E) {
	e.mu.Lock() // want `sync acquisition`
	e.mu.Unlock()
	_ = time.Now()              // want `wall-clock call`
	time.Sleep(time.Nanosecond) // want `wall-clock call`
	e.ch <- 1                   // want `channel send`
	<-e.ch                      // want `channel receive`
	select {                    // want `select may block`
	case v := <-e.ch: // want `channel receive`
		_ = v
	default:
	}
	go work()             // want `go statement`
	for v := range e.ch { // want `range over channel`
		_ = v
	}
	allowedEngine(e)
}

// allowedEngine is on the hot path; its acquisition is exempt by the
// allow on its line.
func allowedEngine(e *E) {
	e.mu.Lock() //taq:allow noblock the fixture's stand-in for emu's engine lock
	e.mu.Unlock()
}
