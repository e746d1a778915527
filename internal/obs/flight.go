package obs

import (
	"io"
	"strconv"

	"taq/internal/sim"
)

// Trigger is one anomaly predicate watched by a FlightRecorder: the
// recorder polls Value on its cadence and fires when it crosses
// Threshold (>=). Typical values: a repetitive-timeout counter, the
// loss-window EWMA, a histogram tail quantile in seconds.
type Trigger struct {
	// Name identifies the trigger in dump filenames and headers
	// (e.g. "repetitive_timeouts", "fct_p99").
	Name string
	// Value reads the watched quantity. Called on the poll cadence
	// inside the owning Runner, so it may read discipline state.
	Value func() float64
	// Threshold fires the trigger when Value() >= Threshold.
	Threshold float64

	armed bool // rearmed after Value drops back below Threshold
	fired int  // dumps produced by this trigger
}

// DumpOpener opens the artifact for one flight dump; name is the
// trigger name and seq the per-recorder dump sequence number. The
// FlightRecorder closes the returned writer after the dump.
type DumpOpener func(name string, seq int) (io.WriteCloser, error)

// FlightRecorder watches trigger predicates on a sim-time cadence and,
// when one fires, dumps the Recorder's retained event ring (the last-N
// events before the anomaly) to a JSONL artifact, with the triggering
// sample attached as a header line.
//
// Each trigger is edge-triggered with hysteresis: after firing it
// stays disarmed until its value drops back below the threshold, so a
// persistently-breached threshold yields one dump, not one per poll.
//
// Like the Sampler, the FlightRecorder reads no clock of its own —
// poll times come from the driving Runner — so the dumps of a
// deterministic run are byte-identical across same-seed runs. The nil
// *FlightRecorder is the disabled state.
type FlightRecorder struct {
	run      sim.Runner
	rec      *Recorder
	interval sim.Time
	open     DumpOpener
	triggers []*Trigger
	timer    *sim.Timer
	started  bool
	seq      int

	// ClassName / StateName label the dumped events' class and
	// tracker-state codes, as on JSONLSink.
	ClassName func(int8) string
	StateName func(int8) string

	// MaxDumps caps the total number of dumps across all triggers
	// (default 8) so a pathological run cannot fill the disk.
	MaxDumps int

	// Dumps counts dumps written; Err retains the first dump error.
	Dumps int
	Err   error
}

// NewFlightRecorder returns a flight recorder polling its triggers
// every interval, dumping rec's ring through open when one fires. A
// non-positive interval defaults to 100 sim-milliseconds. rec should
// be in flight-recorder mode (nil sink) so the ring retains a tail;
// a streaming recorder dumps whatever batch is currently buffered.
func NewFlightRecorder(run sim.Runner, rec *Recorder, interval sim.Time, open DumpOpener) *FlightRecorder {
	if interval <= 0 {
		interval = sim.Second / 10
	}
	return &FlightRecorder{run: run, rec: rec, interval: interval, open: open, MaxDumps: 8}
}

// Watch adds a trigger. Must be called before Start. Safe on a nil
// receiver.
func (f *FlightRecorder) Watch(t Trigger) {
	if f == nil {
		return
	}
	t.armed = true
	f.triggers = append(f.triggers, &t)
}

// Start arms the periodic poll. Safe on a nil receiver; a second Start
// is a no-op.
func (f *FlightRecorder) Start() {
	if f == nil || f.started {
		return
	}
	f.started = true
	var tick func()
	tick = func() {
		f.poll()
		f.timer = f.run.Reschedule(f.timer, f.interval, tick)
	}
	f.timer = f.run.Reschedule(f.timer, f.interval, tick)
}

// Stop cancels the poll. Safe on a nil receiver.
func (f *FlightRecorder) Stop() {
	if f == nil {
		return
	}
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	f.started = false
}

// poll evaluates every trigger, dumping on each armed crossing.
func (f *FlightRecorder) poll() {
	for _, t := range f.triggers {
		v := t.Value()
		if v >= t.Threshold {
			if t.armed && f.Dumps < f.MaxDumps {
				t.armed = false
				t.fired++
				f.dump(t, v)
			}
			continue
		}
		t.armed = true
	}
}

// dump writes one artifact: a header line describing the triggering
// sample, then the ring's retained events as JSONL.
func (f *FlightRecorder) dump(t *Trigger, value float64) {
	w, err := f.open(t.Name, f.seq)
	if err != nil {
		if f.Err == nil {
			f.Err = err
		}
		return
	}
	f.seq++
	b := append([]byte(nil), `{"trigger":"`...)
	b = append(b, t.Name...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, int64(f.run.Now()), 10)
	b = append(b, `,"value":`...)
	b = appendFloat(b, value)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, t.Threshold)
	b = append(b, `,"events":`...)
	b = strconv.AppendInt(b, int64(f.rec.Len()), 10)
	b = append(b, `,"dropped":`...)
	var dropped uint64
	if f.rec != nil {
		dropped = f.rec.Dropped
	}
	b = strconv.AppendUint(b, dropped, 10)
	b = append(b, '}', '\n')
	if _, err := w.Write(b); err != nil {
		if f.Err == nil {
			f.Err = err
		}
		w.Close()
		return
	}
	sink := NewJSONLSink(w)
	sink.ClassName, sink.StateName = f.ClassName, f.StateName
	if evs := f.rec.Events(); len(evs) > 0 {
		if err := sink.WriteEvents(evs); err != nil && f.Err == nil {
			f.Err = err
		}
	}
	if err := w.Close(); err != nil && f.Err == nil {
		f.Err = err
	}
	f.Dumps++
}
