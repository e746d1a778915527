package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"taq/internal/sim"
)

// TestLossWindowRollClaimedOnce races shards on one aggregator: each
// counts its arrivals and drops into the shared window, then all try to
// roll it at the same instant. Exactly one roll may happen: the closed
// window holds every count, the fresh one none, and the smoothed rate
// moved once. A second roller would swap out the emptied counters and
// leave the closed window empty. The rollers spin at a barrier so they
// reach the roll together; an unclaimed roll fails some rounds, not
// every one.
func TestLossWindowRollClaimedOnce(t *testing.T) {
	shards := max(2, runtime.GOMAXPROCS(0))
	const perShard = 64
	for round := 0; round < 2000; round++ {
		g := newAggregator(0)
		var ready atomic.Int32
		var done sync.WaitGroup
		done.Add(shards)
		for range shards {
			go func() {
				defer done.Done()
				for i := range perShard {
					g.noteArrival()
					if i%4 == 0 {
						g.noteDrop()
					}
				}
				ready.Add(1)
				for ready.Load() < int32(shards) {
					runtime.Gosched()
				}
				g.maybeRoll(lossWindow)
			}()
		}
		done.Wait()
		wantArr, wantDrp := uint64(shards*perShard), uint64(shards*perShard/4)
		if arr, drp := g.prevArr.Load(), g.prevDrp.Load(); arr != wantArr || drp != wantDrp {
			t.Fatalf("round %d: closed window holds %d arrivals and %d drops, want %d and %d", round, arr, drp, wantArr, wantDrp)
		}
		if arr, drp := g.winArr.Load(), g.winDrop.Load(); arr != 0 || drp != 0 {
			t.Fatalf("round %d: fresh window holds %d arrivals and %d drops", round, arr, drp)
		}
		if start := sim.Time(g.winStart.Load()); start != lossWindow {
			t.Fatalf("round %d: window opened at %v, want %v", round, start, lossWindow)
		}
		if got, want := g.lossEWMAValue(), 0.125*0.25; got != want {
			t.Fatalf("round %d: smoothed loss rate %v, want %v after one roll", round, got, want)
		}
	}
}
