package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the only place experiment code touches goroutines, and
// the concurrency lives strictly *above* the simulation: every sweep
// point constructs its own seeded sim.Engine inside fn, and no engine,
// topology, or metric sink is ever shared across workers. That is what
// keeps the taqvet determinism contract intact for the simulation-path
// packages — parallelism changes wall time, never results.

// parallelism is the process-wide worker count for experiment sweeps:
// 0 means GOMAXPROCS, 1 means serial. Set from taqbench's -parallel
// flag; read by every figure runner through runSweep — which races
// with nothing only because every access goes through sync/atomic.
var parallelism atomic.Int64

// SetParallelism sets the default worker count used by the figure
// runners. n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the effective default worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunPoints evaluates fn over points on a pool of workers and returns
// the results indexed exactly like points, so output ordering — and
// therefore every table, CSV, and test expectation — is byte-identical
// to a serial run. fn must be self-contained: it receives the point and
// its index, builds its own seeded engine, and returns the measurement.
// workers <= 0 means GOMAXPROCS; workers == 1 runs serially on the
// calling goroutine (no pool, no nondeterministic scheduling at all).
func RunPoints[P, R any](points []P, workers int, fn func(index int, point P) R) []R {
	out := make([]R, len(points))
	if len(points) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers == 1 {
		for i, p := range points {
			out[i] = fn(i, p)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				out[i] = fn(i, points[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runSweep is RunPoints at the process-wide default parallelism — the
// form the figure runners use.
func runSweep[P, R any](points []P, fn func(index int, point P) R) []R {
	return RunPoints(points, Parallelism(), fn)
}
