package emu

import (
	"sync"
	"testing"
	"time"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

func TestEngineSchedulesWithSpeedup(t *testing.T) {
	e := NewEngine(1, 1000) // 1000 virtual s per wall s
	var mu sync.Mutex
	var fired []sim.Time
	done := make(chan struct{})
	e.Post(func() {
		e.Schedule(10*sim.Second, func() {
			mu.Lock()
			fired = append(fired, e.Now())
			mu.Unlock()
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	// 10 virtual seconds at 1000x ≈ 10ms wall; allow generous jitter.
	if fired[0] < 10*sim.Second || fired[0] > 60*sim.Second {
		t.Errorf("fired at virtual %v, want ≈10s", fired[0])
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1, 1000)
	firedCh := make(chan struct{}, 1)
	var tm *sim.Timer
	e.Post(func() {
		tm = e.Schedule(50*sim.Second, func() { firedCh <- struct{}{} })
	})
	e.Post(func() { tm.Cancel() })
	select {
	case <-firedCh:
		t.Error("canceled timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestEngineStopSuppressesCallbacks(t *testing.T) {
	e := NewEngine(1, 1000)
	firedCh := make(chan struct{}, 1)
	e.Post(func() {
		e.Schedule(20*sim.Second, func() { firedCh <- struct{}{} })
	})
	e.Stop()
	select {
	case <-firedCh:
		t.Error("callback ran after Stop")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestEngineSerializesCallbacks(t *testing.T) {
	e := NewEngine(1, 10000)
	var inside, max, count int
	var mu sync.Mutex
	done := make(chan struct{})
	e.Post(func() {
		for i := 0; i < 200; i++ {
			e.Schedule(sim.Time(i)*sim.Millisecond, func() {
				// The engine lock is held here; inside must never
				// exceed 1 even though timers fire from many
				// goroutines.
				inside++
				if inside > max {
					max = inside
				}
				for j := 0; j < 100; j++ {
					_ = j * j
				}
				inside--
				mu.Lock()
				count++
				if count == 200 {
					close(done)
				}
				mu.Unlock()
			})
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callbacks did not all run")
	}
	if max != 1 {
		t.Errorf("max concurrent callbacks = %d, want 1", max)
	}
}

// testbedCfg is a TestbedConfig for the given discipline and bottleneck.
func testbedCfg(seed int64, speedup float64, bw link.Bps, q topology.QueueKind) TestbedConfig {
	return TestbedConfig{Config: topology.Config{Seed: seed, Bandwidth: bw, Queue: q}, Speedup: speedup}
}

func TestTestbedBulkFlowDelivers(t *testing.T) {
	// Speedup compresses wall time but events still wait on a real
	// wall timer, so the virtual packet rate divided by speedup must
	// stay well below what the OS timer wheel sustains: 200 Kbps =
	// 50 pkt/s virtual, speedup 50 → 2500 events/s wall; 100 kB
	// is 4 virtual seconds, ≈0.1 s wall, at the ideal rate. Timer latency
	// on a loaded machine stretches that, so the test waits for the bytes
	// and fails only if they never arrive.
	tb := NewTestbed(testbedCfg(1, 50, 200*link.Kbps, topology.DropTail))
	defer tb.Stop()
	tb.AddBulkFlow()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var total float64
		tb.Snapshot(func() { total = tb.Net.Slicer.FlowTotal(0) })
		if total >= 100_000 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %v bytes in 30 wall seconds, want ≥100k", total)
		}
		tb.RunFor(sim.Second)
	}
}

func TestTestbedTAQMiddleboxRuns(t *testing.T) {
	tb := NewTestbed(testbedCfg(2, 200, 400*link.Kbps, topology.TAQ))
	for i := 0; i < 8; i++ {
		tb.AddBulkFlow()
	}
	tb.RunFor(60 * sim.Second)
	tb.Stop()
	if wakeArmed(tb.Engine) {
		t.Error("wake timer armed after Stop")
	}
	tb.Snapshot(func() {
		net := tb.Net
		if net.QueueArrivals == 0 {
			t.Fatal("no packets reached the middlebox")
		}
		if net.Middlebox == nil {
			t.Fatal("middlebox missing")
		}
		if net.QueueDrops == 0 {
			t.Error("overloaded testbed should drop packets")
		}
		if net.NumFlows() != 8 {
			t.Errorf("flows = %d", net.NumFlows())
		}
	})
}

func TestSpeedupDefaults(t *testing.T) {
	e := NewEngine(1, 0)
	if e.speedup != 1 {
		t.Errorf("speedup = %v, want 1", e.speedup)
	}
}
