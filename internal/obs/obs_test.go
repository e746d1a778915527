package obs

import (
	"bytes"
	"errors"
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

func mkPacket(flow packet.FlowID, seq int) *packet.Packet {
	return &packet.Packet{Flow: flow, Pool: packet.PoolID(flow), Kind: packet.Data, Seq: seq, Size: 500}
}

func TestFlightRecorderWrapAccounting(t *testing.T) {
	r := NewRecorder(nil, 4)
	for i := 0; i < 6; i++ {
		r.Enqueue(sim.Time(i), mkPacket(1, i), 3)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped)
	}
	if r.Recorded != 6 {
		t.Fatalf("Recorded = %d, want 6", r.Recorded)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := sim.Time(i + 2); ev.Time != want {
			t.Errorf("event %d time = %d, want %d (oldest-first after wrap)", i, ev.Time, want)
		}
	}
}

func TestStreamingFlushOnFullAndFlush(t *testing.T) {
	var mem MemorySink
	r := NewRecorder(&mem, 2)
	for i := 0; i < 5; i++ {
		r.Dequeue(sim.Time(i), mkPacket(2, i), -1)
	}
	// Ring size 2 → two full-batch flushes so far, one event buffered.
	if len(mem.Events) != 4 {
		t.Fatalf("sink has %d events before Flush, want 4", len(mem.Events))
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 buffered", r.Len())
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(mem.Events) != 5 {
		t.Fatalf("sink has %d events after Flush, want 5", len(mem.Events))
	}
	for i, ev := range mem.Events {
		if ev.Time != sim.Time(i) || ev.Kind != KindDequeue {
			t.Errorf("event %d = {t=%d kind=%v}, want {t=%d dequeue}", i, ev.Time, ev.Kind, i)
		}
	}
	if r.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped)
	}
}

type failSink struct {
	writes int
	err    error
}

func (s *failSink) WriteEvents(batch []Event) error {
	s.writes++
	return s.err
}

func (s *failSink) Close() error { return nil }

func TestStreamingSinkErrorIsSticky(t *testing.T) {
	sink := &failSink{err: errors.New("disk full")}
	r := NewRecorder(sink, 2)
	for i := 0; i < 6; i++ {
		r.Drop(sim.Time(i), mkPacket(3, i), 0, i%2 == 1)
	}
	// First full batch fails; everything after is discarded without
	// touching the sink again.
	if sink.writes != 1 {
		t.Fatalf("sink writes = %d, want 1 (error must be sticky)", sink.writes)
	}
	if r.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", r.Dropped)
	}
	if err := r.Flush(); err == nil {
		t.Fatal("Flush returned nil, want sticky sink error")
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close returned nil, want sticky sink error")
	}
}

func TestNilRecorderIsSafeAndAllocFree(t *testing.T) {
	var r *Recorder
	p := mkPacket(7, 0)
	r.Enqueue(1, p, 0)
	r.Dequeue(2, p, 0)
	r.Drop(3, p, 1, true)
	r.TrackerTransition(4, 7, 7, 0, 1)
	r.TimeoutDetected(5, 7, 7, 1, 2)
	r.AdmissionDecision(6, 7, AdmissionForced)
	r.ClassChange(7, p, -1, 2)
	if err := r.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder reported retained events")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Enqueue(1, p, 0)
		r.Dequeue(2, p, 0)
		r.Drop(3, p, 1, false)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocs/op = %v, want 0", allocs)
	}
}

func TestEnabledRecorderHotPathIsAllocFree(t *testing.T) {
	r := NewRecorder(nil, 64)
	p := mkPacket(9, 0)
	allocs := testing.AllocsPerRun(100, func() {
		r.Enqueue(1, p, 0)
		r.Dequeue(2, p, 0)
	})
	if allocs != 0 {
		t.Fatalf("flight recorder allocs/op = %v, want 0", allocs)
	}
}

func testClassName(c int8) string {
	return [...]string{"Recovery", "NewFlow", "OverPenalized", "BelowFairShare", "AboveFairShare"}[c]
}

func testStateName(s int8) string {
	return [...]string{"SlowStart", "CongestionAvoidance", "TimeoutSilence"}[s]
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.ClassName = testClassName
	sink.StateName = testStateName
	r := NewRecorder(sink, 8)

	p := &packet.Packet{Flow: 5, Pool: 2, Kind: packet.Data, Seq: 17, Size: 500}
	syn := &packet.Packet{Flow: 6, Pool: packet.PoolNone, Kind: packet.Syn, Size: 40}
	r.Enqueue(1000, p, 3)
	r.Dequeue(2000, p, -1)
	r.Drop(3000, p, 0, true)
	r.ClassChange(3500, p, -1, 1)
	r.TrackerTransition(4000, 5, 2, 0, 1)
	r.TimeoutDetected(5000, 5, 2, 1, 2)
	r.AdmissionDecision(6000, 2, AdmissionForced)
	r.Enqueue(7000, syn, -1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	want := `{"t":1000,"ev":"enqueue","flow":5,"pool":2,"pkt":"DATA","seq":17,"size":500,"class":"BelowFairShare"}
{"t":2000,"ev":"dequeue","flow":5,"pool":2,"pkt":"DATA","seq":17,"size":500}
{"t":3000,"ev":"drop","flow":5,"pool":2,"pkt":"DATA","seq":17,"size":500,"class":"Recovery","rtx":true}
{"t":3500,"ev":"class_change","flow":5,"pool":2,"from":-1,"to":"NewFlow"}
{"t":4000,"ev":"tracker_transition","flow":5,"pool":2,"from":"SlowStart","to":"CongestionAvoidance"}
{"t":5000,"ev":"timeout_detected","flow":5,"pool":2,"from":"CongestionAvoidance","to":"TimeoutSilence"}
{"t":6000,"ev":"admission_decision","pool":2,"decision":"forced"}
{"t":7000,"ev":"enqueue","flow":6,"pkt":"SYN","seq":0,"size":40}
`
	if got := buf.String(); got != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestJSONLSinkNumericCodesWithoutLabelFuncs(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(NewJSONLSink(&buf), 4)
	r.TrackerTransition(100, 1, packet.PoolNone, 2, 3)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := `{"t":100,"ev":"tracker_transition","flow":1,"from":2,"to":3}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestGaugeSetCSVDeterministic(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine(42)
		var buf bytes.Buffer
		g := NewGaugeSet(eng, sim.Second, NewCSVSeries(&buf))
		depth := 0
		g.RegisterInt("qlen", func() int { return depth })
		g.Register("loss_ewma", func() float64 { return float64(depth) / 8 })
		// Vary the gauge between samples.
		for i := 1; i <= 3; i++ {
			i := i
			eng.Schedule(sim.Time(i)*sim.Second-sim.Millisecond, func() { depth = i * 2 })
		}
		g.Start()
		eng.RunUntil(3 * sim.Second)
		if err := g.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		return buf.String()
	}
	got := run()
	want := "t_ns,qlen,loss_ewma\n" +
		"0,0,0\n" +
		"1000000000,2,0.25\n" +
		"2000000000,4,0.5\n" +
		"3000000000,6,0.75\n"
	if got != want {
		t.Fatalf("CSV mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if again := run(); again != got {
		t.Fatal("same-seed gauge CSV not byte-identical across runs")
	}
}

func TestGaugeSetStopCancelsTick(t *testing.T) {
	eng := sim.NewEngine(1)
	var mem MemorySeries
	g := NewGaugeSet(eng, sim.Second, &mem)
	g.RegisterInt("x", func() int { return 1 })
	g.Start()
	eng.RunUntil(2 * sim.Second)
	if err := g.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	n := len(mem.Times)
	if n != 3 {
		t.Fatalf("samples before stop = %d, want 3", n)
	}
	eng.RunUntil(10 * sim.Second)
	if len(mem.Times) != n {
		t.Fatalf("gauge kept ticking after Stop: %d samples", len(mem.Times))
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending timers after Stop = %d, want 0 (timer leak)", eng.Pending())
	}
}

func TestGaugeSnapshot(t *testing.T) {
	eng := sim.NewEngine(1)
	g := NewGaugeSet(eng, sim.Second, &MemorySeries{})
	g.RegisterInt("a", func() int { return 4 })
	g.Register("b", func() float64 { return 2.5 })
	names, vals := g.Snapshot()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if len(vals) != 2 || vals[0] != 4 || vals[1] != 2.5 {
		t.Fatalf("vals = %v", vals)
	}
	var nilG *GaugeSet
	nilG.Register("x", nil)
	nilG.Start()
	if err := nilG.Stop(); err != nil {
		t.Fatalf("nil Stop: %v", err)
	}
	if n, v := nilG.Snapshot(); n != nil || v != nil {
		t.Fatal("nil GaugeSet snapshot not empty")
	}
}

func TestNullSinkCounts(t *testing.T) {
	var null NullSink
	r := NewRecorder(&null, 2)
	p := mkPacket(1, 0)
	for i := 0; i < 5; i++ {
		r.Enqueue(sim.Time(i), p, -1)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if null.Events != 5 {
		t.Fatalf("NullSink.Events = %d, want 5", null.Events)
	}
}
