package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"taq/internal/sim"
)

// memDump is a DumpOpener backed by in-memory buffers.
type memDump struct {
	names []string
	bufs  []*bytes.Buffer
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func (d *memDump) open(name string, seq int) (io.WriteCloser, error) {
	buf := &bytes.Buffer{}
	d.names = append(d.names, name)
	d.bufs = append(d.bufs, buf)
	return nopCloser{buf}, nil
}

func TestFlightRecorderTriggerAndHysteresis(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil, 8)
	var dumps memDump
	level := 0.0
	fr := NewFlightRecorder(eng, rec, sim.Second, dumps.open)
	fr.Watch(Trigger{Name: "rep_timeouts", Threshold: 3, Value: func() float64 { return level }})
	fr.Start()

	// Feed the ring some context events and raise the level past the
	// threshold between polls.
	eng.After(sim.Second/2, func() {
		for i := 0; i < 3; i++ {
			rec.Enqueue(eng.Now(), mkPacket(7, i), 2)
		}
	})
	eng.After(3*sim.Second/2, func() { level = 5 }) // breach before poll 2
	// Stays breached through polls 3 and 4: hysteresis must suppress
	// further dumps until the value recovers and breaches again.
	eng.After(9*sim.Second/2, func() { level = 0 })  // rearm before poll 5
	eng.After(11*sim.Second/2, func() { level = 4 }) // second breach before poll 6
	eng.RunUntil(8 * sim.Second)
	fr.Stop()

	if fr.Err != nil {
		t.Fatalf("flight recorder error: %v", fr.Err)
	}
	if fr.Dumps != 2 {
		t.Fatalf("Dumps = %d, want 2 (one per armed crossing)", fr.Dumps)
	}
	if len(dumps.bufs) != 2 || dumps.names[0] != "rep_timeouts" {
		t.Fatalf("dump artifacts = %v", dumps.names)
	}
	lines := strings.Split(strings.TrimRight(dumps.bufs[0].String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("first dump has %d lines, want 1 header + 3 events:\n%s", len(lines), dumps.bufs[0])
	}
	head := lines[0]
	for _, want := range []string{`"trigger":"rep_timeouts"`, `"value":5`, `"threshold":3`, `"events":3`, `"dropped":0`} {
		if !strings.Contains(head, want) {
			t.Errorf("header %s missing %s", head, want)
		}
	}
	if !strings.Contains(lines[1], `"ev":"enqueue"`) {
		t.Errorf("event line %q missing enqueue kind", lines[1])
	}
}

func TestFlightRecorderMaxDumps(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil, 4)
	var dumps memDump
	fr := NewFlightRecorder(eng, rec, sim.Second, dumps.open)
	fr.MaxDumps = 2
	level := 0.0
	fr.Watch(Trigger{Name: "osc", Threshold: 1, Value: func() float64 { return level }})
	fr.Start()
	// Oscillate so the trigger rearms before every poll — without the
	// cap this would dump on every odd poll.
	tick := 0
	eng.After(sim.Second/2, func() {})
	var osc func()
	osc = func() {
		tick++
		if level == 0 {
			level = 2
		} else {
			level = 0
		}
		if tick < 20 {
			eng.After(sim.Second, osc)
		}
	}
	eng.After(sim.Second/2, osc)
	eng.RunUntil(25 * sim.Second)
	fr.Stop()
	if fr.Dumps != 2 {
		t.Fatalf("Dumps = %d, want MaxDumps cap of 2", fr.Dumps)
	}
}

func TestNilFlightRecorderSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Watch(Trigger{Name: "x", Threshold: 1, Value: func() float64 { return 0 }})
	fr.Start()
	fr.Stop()
}
