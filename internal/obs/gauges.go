package obs

import (
	"io"
	"strconv"

	"taq/internal/sim"
)

// SeriesSink consumes periodic gauge samples. WriteHeader is called
// once (before the first sample) with the gauge names in registration
// order; WriteSample is called with values in that same order and may
// not retain the slice.
type SeriesSink interface {
	WriteHeader(names []string) error
	WriteSample(t sim.Time, values []float64) error
	Close() error
}

// GaugeSet samples a set of registered gauge functions on a fixed
// sim-time cadence and writes each sample to a SeriesSink. Like the
// Recorder, it reads no clock of its own: sample times come from the
// driving Runner, so the series of a deterministic run is itself
// deterministic. The nil *GaugeSet is the disabled state.
//
// A GaugeSet is driven from a single sim.Runner and needs no locking.
type GaugeSet struct {
	run      sim.Runner
	interval sim.Time
	sink     SeriesSink
	names    []string
	fns      []func() float64
	values   []float64 // reused sample buffer
	timer    *sim.Timer
	started  bool
	err      error

	// Samples counts samples taken (including ones lost to a sink
	// error).
	Samples uint64
}

// NewGaugeSet returns a gauge set sampling every interval onto sink.
// A non-positive interval defaults to one sim second. With a nil sink
// the set is snapshot-only: Start arms nothing and the gauges are read
// through Snapshot alone (the live endpoint's /vars).
func NewGaugeSet(run sim.Runner, interval sim.Time, sink SeriesSink) *GaugeSet {
	if interval <= 0 {
		interval = sim.Second
	}
	return &GaugeSet{run: run, interval: interval, sink: sink}
}

// Register adds a gauge. Registration order is column order in the
// emitted series. Must be called before Start. Safe on a nil receiver.
func (g *GaugeSet) Register(name string, fn func() float64) {
	if g == nil {
		return
	}
	g.names = append(g.names, name)
	g.fns = append(g.fns, fn)
}

// RegisterInt adds a gauge backed by an integer-valued function.
func (g *GaugeSet) RegisterInt(name string, fn func() int) {
	if g == nil {
		return
	}
	g.Register(name, func() float64 { return float64(fn()) })
}

// Start writes the series header, takes an immediate sample, and arms
// the periodic tick. Safe on a nil receiver; a second Start, or a Start
// with no sink, is a no-op.
func (g *GaugeSet) Start() {
	if g == nil || g.started || g.sink == nil {
		return
	}
	g.started = true
	g.values = make([]float64, len(g.fns))
	if err := g.sink.WriteHeader(g.names); err != nil {
		g.err = err
		return
	}
	g.sample()
	var tick func()
	tick = func() {
		g.sample()
		g.timer = g.run.Reschedule(g.timer, g.interval, tick)
	}
	g.timer = g.run.Reschedule(g.timer, g.interval, tick)
}

// sample evaluates every gauge and writes one row.
func (g *GaugeSet) sample() {
	g.Samples++
	if g.err != nil {
		return
	}
	for i, fn := range g.fns {
		g.values[i] = fn()
	}
	if err := g.sink.WriteSample(g.run.Now(), g.values); err != nil {
		g.err = err
	}
}

// Snapshot evaluates every gauge now and returns (names, values); the
// slices are freshly allocated. Used by the live introspection endpoint
// (values must be read under the owning engine's serialization — see
// internal/emu). Returns nils on a nil receiver.
func (g *GaugeSet) Snapshot() ([]string, []float64) {
	if g == nil {
		return nil, nil
	}
	names := make([]string, len(g.names))
	copy(names, g.names)
	vals := make([]float64, len(g.fns))
	for i, fn := range g.fns {
		vals[i] = fn()
	}
	return names, vals
}

// Stop cancels the periodic tick and closes the sink, returning the
// sticky sink error, if any. Safe on a nil receiver.
func (g *GaugeSet) Stop() error {
	if g == nil {
		return nil
	}
	if g.timer != nil {
		g.timer.Cancel()
		g.timer = nil
	}
	if g.started {
		g.started = false
		if err := g.sink.Close(); err != nil && g.err == nil {
			g.err = err
		}
	}
	return g.err
}

// appendFloat renders v in the shortest round-trippable form ("3" for
// integral values), the shared number format of both series sinks.
func appendFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// CSVSeries writes gauge samples as CSV: a header row of "t_ns" plus
// the gauge names, then one row per sample. The underlying writer is
// left open on Close (the caller owns the file).
type CSVSeries struct {
	w   io.Writer
	buf []byte
}

// NewCSVSeries returns a CSV series sink writing to w.
func NewCSVSeries(w io.Writer) *CSVSeries { return &CSVSeries{w: w} }

// WriteHeader implements SeriesSink.
func (s *CSVSeries) WriteHeader(names []string) error {
	s.buf = append(s.buf[:0], "t_ns"...)
	for _, n := range names {
		s.buf = append(s.buf, ',')
		s.buf = append(s.buf, n...)
	}
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// WriteSample implements SeriesSink.
func (s *CSVSeries) WriteSample(t sim.Time, values []float64) error {
	s.buf = strconv.AppendInt(s.buf[:0], int64(t), 10)
	for _, v := range values {
		s.buf = append(s.buf, ',')
		s.buf = appendFloat(s.buf, v)
	}
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// Close implements SeriesSink. The underlying writer is left open.
func (s *CSVSeries) Close() error { return nil }

// MemorySeries retains samples in memory, for tests and the live
// endpoint.
type MemorySeries struct {
	// Names is the header captured at Start.
	Names []string
	// Times and Values hold one entry per sample; Values rows are in
	// Names order.
	Times  []sim.Time
	Values [][]float64
}

// WriteHeader implements SeriesSink.
func (s *MemorySeries) WriteHeader(names []string) error {
	s.Names = append(s.Names[:0], names...)
	return nil
}

// WriteSample implements SeriesSink.
func (s *MemorySeries) WriteSample(t sim.Time, values []float64) error {
	row := make([]float64, len(values))
	copy(row, values)
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, row)
	return nil
}

// Close implements SeriesSink.
func (s *MemorySeries) Close() error { return nil }
