package topology

import (
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// runFingerprint runs a small TAQ dumbbell — a few bulk flows plus
// sized transfers with jittered starts — and condenses everything
// order-sensitive about the run into one comparable record.
type fingerprint struct {
	completions map[packet.FlowID]sim.Time
	totals      map[packet.FlowID]float64
	arrivals    uint64
	drops       uint64
	processed   uint64
}

func runFingerprint(t *testing.T, seed int64) fingerprint {
	t.Helper()
	n := MustNew(Config{
		Seed:              seed,
		Queue:             TAQ,
		TwoWayObservation: true,
	})

	for i := 0; i < 3; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	fp := fingerprint{
		completions: make(map[packet.FlowID]sim.Time),
		totals:      make(map[packet.FlowID]float64),
	}
	for i := 0; i < 4; i++ {
		app := &tcp.SizedApp{Total: 30 + 10*i}
		fl := n.AddFlow(packet.PoolNone, app, sim.Time(5+2*i)*sim.Second)
		id := fl.ID
		app.OnComplete = func() { fp.completions[id] = n.Engine.Now() }
	}

	n.Run(60 * sim.Second)

	for id := range packet.FlowID(n.NumFlows()) {
		fp.totals[id] = n.Slicer.FlowTotal(id)
	}
	fp.arrivals = n.QueueArrivals
	fp.drops = n.QueueDrops
	fp.processed = n.Engine.Processed
	return fp
}

// TestDeterministicReplay is the determinism regression gate: two runs
// with the same seed must agree event-for-event. Map-iteration order or
// any wall-clock leakage into the simulated path shows up here as a
// diverging completion time, byte total, or event count.
func TestDeterministicReplay(t *testing.T) {
	a := runFingerprint(t, 42)
	b := runFingerprint(t, 42)

	if len(a.completions) == 0 {
		t.Fatal("no sized flows completed within the horizon; scenario too tight to compare")
	}
	if len(a.completions) != len(b.completions) {
		t.Fatalf("completed flows differ: %d vs %d", len(a.completions), len(b.completions))
	}
	for id, at := range a.completions {
		if bt, ok := b.completions[id]; !ok || bt != at {
			t.Errorf("flow %d completion: run A %v, run B %v", id, at, bt)
		}
	}
	for id, av := range a.totals {
		if bv := b.totals[id]; bv != av {
			t.Errorf("flow %d delivered bytes: run A %v, run B %v", id, av, bv)
		}
	}
	if a.arrivals != b.arrivals || a.drops != b.drops {
		t.Errorf("queue counters diverged: arrivals %d/%d drops %d/%d",
			a.arrivals, b.arrivals, a.drops, b.drops)
	}
	if a.processed != b.processed {
		t.Errorf("event counts diverged: %d vs %d callbacks", a.processed, b.processed)
	}

	// Different seeds must actually change the run, or the fingerprint
	// (and the jitter plumbing) is vacuous.
	c := runFingerprint(t, 43)
	if c.processed == a.processed && c.drops == a.drops {
		t.Error("seed 43 reproduced seed 42 exactly; fingerprint is not sensitive to the RNG")
	}
}
