package obs

import (
	"io"
	"strconv"

	"taq/internal/sim"
)

// Column maps one series column to a registry cell: a counter or gauge
// family and, for a labelled family, its label value.
type Column struct{ Name, Family, Label string }

// Sampler writes chosen cells of a Registry as a CSV time series on a
// fixed sim-time cadence: a header row of "t_ns" plus the column
// names, then one row per sample. Each row is one Registry.Snapshot,
// taken on the driving Runner, which is where the registry's
// owner-read families may be read. Like the Recorder it reads no clock
// of its own, so the series of a deterministic run is itself
// deterministic. The nil *Sampler is the disabled state.
type Sampler struct {
	run   sim.Runner
	reg   *Registry
	w     io.Writer
	cols  []Column
	buf   []byte // reused row buffer
	timer *sim.Timer
	err   error
}

// StartSampler writes the header, takes an immediate sample, and arms
// a tick that samples every interval (a non-positive interval means
// one sim second). A column naming no cell of reg panics at the first
// sample, a wiring bug. The writer is left open: the caller owns it.
func StartSampler(run sim.Runner, reg *Registry, interval sim.Time, w io.Writer, cols []Column) *Sampler {
	if interval <= 0 {
		interval = sim.Second
	}
	s := &Sampler{run: run, reg: reg, w: w, cols: cols}
	s.buf = append(s.buf, "t_ns"...)
	for _, c := range cols {
		s.buf = append(append(s.buf, ','), c.Name...)
	}
	s.writeRow()
	if s.err != nil {
		return s
	}
	s.sample()
	var tick func()
	tick = func() {
		s.sample()
		s.timer = run.Reschedule(s.timer, interval, tick)
	}
	s.timer = run.Reschedule(nil, interval, tick)
	return s
}

// sample reads every column from one snapshot and writes one row.
// After a write error it writes nothing more.
func (s *Sampler) sample() {
	if s.err != nil {
		return
	}
	snap := s.reg.Snapshot()
	s.buf = strconv.AppendInt(s.buf[:0], int64(s.run.Now()), 10)
	for _, c := range s.cols {
		v, ok := snap.Value(c.Family, c.Label)
		if !ok {
			panic("obs: series column " + c.Name + " has no registry cell " + c.Family + "{" + c.Label + "}")
		}
		s.buf = appendFloat(append(s.buf, ','), v)
	}
	s.writeRow()
}

// writeRow ends the row in buf and writes it.
func (s *Sampler) writeRow() {
	s.buf = append(s.buf, '\n')
	_, s.err = s.w.Write(s.buf)
}

// Stop cancels the periodic tick and returns the sticky write error,
// if any. Safe on a nil receiver.
func (s *Sampler) Stop() error {
	if s == nil {
		return nil
	}
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
	return s.err
}
