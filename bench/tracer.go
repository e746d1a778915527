package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanKind names a call the harness makes into the program. Spans are
// recorded from the outside only, around the harness's own calls.
type spanKind uint8

const (
	spanRep spanKind = iota
	spanStep
	spanSimRun
	spanRunUntil
	spanScanTick
	spanEnqueueAccept
	spanEnqueueDrop
	spanDequeue
	spanReverse
	spanPost
	spanTimerLate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"rep", "step", "sim.run", "core.run_until", "core.scan_tick",
	"core.enqueue_accept", "core.enqueue_drop", "core.dequeue", "core.reverse",
	"emu.post", "emu.timer_late",
}

// span is one timed call: what, when (nanoseconds since the tracer
// began), and the span that caused it (-1 for none).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer holds spans in memory until the run ends. The nil tracer is
// tracing off: every method is a no-op on it, so call sites need no
// branch of their own. One tracer serves one serialized caller; a
// concurrent caller takes a child.
type tracer struct {
	t0    time.Time
	spans []span

	mu   sync.Mutex
	kids []*tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// child returns a tracer on the same time axis for another serialized
// caller (one per bank shard: the shard's engine lock serializes it).
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	k := &tracer{t0: t.t0, spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.kids = append(t.kids, k)
	t.mu.Unlock()
	return k
}

func (t *tracer) clock() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) begin(k spanKind, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.clock()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.clock()
}

// leaf records a finished span that began at start.
func (t *tracer) leaf(k spanKind, parent int32, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: start, end: t.clock()})
}

// between records a span from two wall instants (timer lateness: due
// time to firing time).
func (t *tracer) between(k spanKind, from, to time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{kind: k, parent: -1, start: int64(from.Sub(t.t0)), end: int64(to.Sub(t.t0))})
}

func (t *tracer) all() []*tracer {
	if t == nil {
		return nil
	}
	return append([]*tracer{t}, t.kids...)
}

// durations returns the lengths in nanoseconds of every span of kind k.
func (t *tracer) durations(k spanKind) []float64 {
	var out []float64
	for _, tr := range t.all() {
		for i := range tr.spans {
			if s := &tr.spans[i]; s.kind == k {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// write dumps the spans as CSV (id, parent, name, start_ns, end_ns),
// ids made unique across child tracers by an offset per tracer.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	offset := 0
	for _, tr := range t.all() {
		for i, s := range tr.spans {
			parent := int(s.parent)
			if parent >= 0 {
				parent += offset
			}
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", offset+i, parent, spanNames[s.kind], s.start, s.end)
		}
		offset += len(tr.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
