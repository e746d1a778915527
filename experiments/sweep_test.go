package experiments

import (
	"reflect"
	"testing"

	"taq/internal/link"
	"taq/internal/topology"
)

func TestRunPointsIndexing(t *testing.T) {
	points := make([]int, 257) // deliberately not a multiple of workers
	for i := range points {
		points[i] = i * 3
	}
	want := make([]int, len(points))
	for i, p := range points {
		want[i] = p + 1
	}
	for _, workers := range []int{0, 1, 2, 8, 500} {
		got := RunPoints(points, workers, func(i int, p int) int {
			if points[i] != p {
				t.Errorf("workers=%d: fn(%d, %d) got mismatched index/point", workers, i, p)
			}
			return p + 1
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results not in input order", workers)
		}
	}
}

func TestRunPointsEmpty(t *testing.T) {
	got := RunPoints(nil, 4, func(int, struct{}) int { return 1 })
	if len(got) != 0 {
		t.Errorf("RunPoints(nil) returned %d results", len(got))
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Errorf("Parallelism() = %d with default, want >= 1", got)
	}
}

// TestParallelSweepMatchesSerial is the determinism contract for the
// sweep layer: because every point builds its own seeded engine, the
// fig2/fig8 fairness results must be deep-equal no matter how many
// workers evaluate them.
func TestParallelSweepMatchesSerial(t *testing.T) {
	defer SetParallelism(0)
	sp := shortTerm(topology.DropTail, topology.TAQ)
	sp.bandwidths, sp.shares = []link.Bps{200 * link.Kbps}, []float64{5000, 10000}
	SetParallelism(1)
	serial := sp.run(0.05, 1)
	SetParallelism(8)
	parallel := sp.run(0.05, 1)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
