package obs

import (
	"slices"
	"sort"
	"sync/atomic"

	"taq/internal/metrics"
	"taq/internal/sim"
)

// Registry is a fixed-shape set of counters, gauges and log-bucketed
// histograms. Every metric is created up front (construction may
// allocate); the record path afterwards touches exactly one atomic
// cell — zero allocations, no maps, no locks — so it can sit on the
// per-packet path next to the Recorder hooks.
//
// A CounterVecFunc or GaugeVecFunc family owns no cells: Snapshot
// reads the plain field its owner already keeps, so Snapshot runs
// where that owner runs (its sim.Runner, or under its engine lock),
// and per-shard snapshots aggregate with MetricsSnapshot.Merge.
//
// The nil *Registry (and nil *Counter / *Histogram) is the disabled
// state: every record method is a valid no-op on a nil receiver, so an
// uninstrumented run pays one branch per hook.
//
// Determinism contract: values are driven entirely by the event
// sequence and sim.Time durations, never a wall clock, so a same-seed
// run produces a byte-identical Prometheus exposition.
type Registry struct {
	names    []string
	counters []*Counter
	funcs    []*funcFamily[uint64]
	gauges   []*funcFamily[float64]
	hists    []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// checkName claims name, panicking on a duplicate — a
// construction-time programmer error, like a duplicate expvar.
func (r *Registry) checkName(name string) {
	for _, n := range r.names {
		if n == name {
			panic("obs: duplicate metric name " + name)
		}
	}
	r.names = append(r.names, name)
}

// Counter registers a single monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, "", nil)
}

// CounterVec registers a counter with one cell per label value (a
// Prometheus label dimension with a fixed, enumerable value set, e.g.
// the five TAQ classes). An empty label registers a plain counter.
func (r *Registry) CounterVec(name, help, label string, values []string) *Counter {
	if r == nil {
		return nil
	}
	r.checkName(name)
	n := len(values)
	if n == 0 {
		n = 1
	}
	c := &Counter{name: name, help: help, label: label, labelVals: values,
		cells: make([]atomic.Uint64, n)}
	r.counters = append(r.counters, c)
	return c
}

// CounterVecFunc registers a counter family whose values live with the
// component that counts them: each Snapshot calls fill with a zeroed
// slice of one cell per label value (one cell for an empty label) to
// copy them into. fill runs on the snapshotting goroutine, so it may
// read plain fields only when Snapshot runs where their owner does.
func (r *Registry) CounterVecFunc(name, help, label string, values []string, fill func(dst []uint64)) {
	if r == nil {
		return
	}
	r.checkName(name)
	r.funcs = append(r.funcs, &funcFamily[uint64]{name, help, label, values, fill})
}

// GaugeVecFunc registers a gauge family, read as CounterVecFunc
// families are: each Snapshot calls fill with a zeroed slice of one
// cell per label value (one cell for an empty label), on the
// snapshotting goroutine. Merge sums gauges like counters, so a
// per-shard registry may carry only gauges whose shard values add up
// to the whole (a queue length, a flow count); a gauge of state the
// shards share is registered once, on the registry of its owner.
func (r *Registry) GaugeVecFunc(name, help, label string, values []string, fill func(dst []float64)) {
	if r == nil {
		return
	}
	r.checkName(name)
	r.gauges = append(r.gauges, &funcFamily[float64]{name, help, label, values, fill})
}

// funcFamily is a counter or gauge family read through its owner's
// fill function (CounterVecFunc, GaugeVecFunc).
type funcFamily[T uint64 | float64] struct {
	name, help, label string
	labelVals         []string
	fill              func(dst []T)
}

// snapshot has fill copy the family into zeroed cells.
func (f *funcFamily[T]) snapshot() FamilySnapshot[T] {
	fs := FamilySnapshot[T]{Name: f.name, Help: f.help, Label: f.label,
		LabelVals: f.labelVals, Values: make([]T, max(len(f.labelVals), 1))}
	f.fill(fs.Values)
	return fs
}

// Histogram registers a single histogram over the given ascending
// upper bounds (an implicit +Inf overflow bucket is always added).
func (r *Registry) Histogram(name, help string, bounds []sim.Time) *Histogram {
	return r.HistogramVec(name, help, bounds, "", nil)
}

// HistogramVec registers a histogram with one bucket row per label
// value. An empty label registers a plain histogram.
func (r *Registry) HistogramVec(name, help string, bounds []sim.Time, label string, values []string) *Histogram {
	if r == nil {
		return nil
	}
	r.checkName(name)
	n := len(values)
	if n == 0 {
		n = 1
	}
	h := &Histogram{name: name, help: help, label: label, labelVals: values,
		bounds: bounds, nb: len(bounds) + 1,
		cells:  make([]atomic.Uint64, n*(len(bounds)+1)),
		counts: make([]atomic.Uint64, n),
		sums:   make([]atomic.Int64, n),
	}
	r.hists = append(r.hists, h)
	return h
}

// Counter is a monotonic counter, optionally vectorized over a fixed
// label-value set. The nil *Counter is the disabled state.
type Counter struct {
	name, help string
	label      string
	labelVals  []string
	cells      []atomic.Uint64
}

// AddAt adds n to the cell for label-value index i. Out-of-range
// indices are dropped — a miswired record site must not panic the
// packet path.
//
//taq:hotpath one atomic add; the registry's fundamental record op
func (c *Counter) AddAt(i int, n uint64) {
	if c == nil || i < 0 || i >= len(c.cells) {
		return
	}
	c.cells[i].Add(n)
}

// Inc increments a plain counter (cell 0).
//
//taq:hotpath nil-receiver counter hook on the per-packet path
func (c *Counter) Inc() { c.AddAt(0, 1) }

// Add adds n to a plain counter (cell 0).
//
//taq:hotpath nil-receiver counter hook on the per-packet path
func (c *Counter) Add(n uint64) { c.AddAt(0, n) }

// IncAt increments the cell for label-value index i.
//
//taq:hotpath nil-receiver counter hook on the per-packet path
func (c *Counter) IncAt(i int) { c.AddAt(i, 1) }

// Histogram is a log-bucketed duration histogram, optionally
// vectorized over a fixed label-value set. Observations are sim.Time
// durations; bucket placement uses Prometheus "le" semantics (a value
// lands in the first bucket whose upper bound is >= the value). The
// nil *Histogram is the disabled state.
type Histogram struct {
	name, help string
	label      string
	labelVals  []string
	bounds     []sim.Time // ascending upper bounds; +Inf is implicit
	nb         int        // buckets per label row = len(bounds)+1
	cells      []atomic.Uint64
	counts     []atomic.Uint64
	sums       []atomic.Int64
}

// ObserveAt records v into the bucket row for label-value index i.
// Out-of-range indices are dropped.
//
//taq:hotpath binary bound search plus three atomic adds
func (h *Histogram) ObserveAt(i int, v sim.Time) {
	if h == nil || i < 0 || i >= len(h.counts) {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.cells[i*h.nb+lo].Add(1)
	h.counts[i].Add(1)
	h.sums[i].Add(int64(v))
}

// Observe records v into a plain histogram (label row 0).
//
//taq:hotpath nil-receiver histogram hook on the per-packet path
func (h *Histogram) Observe(v sim.Time) { h.ObserveAt(0, v) }

// Count returns the total number of observations across all label
// rows.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (q in (0,1]) across all label rows
// by nearest rank over the bucket upper bounds: the returned value is
// the upper bound of the bucket containing the rank-th observation —
// an overestimate by at most one bucket width, which is what a
// log-bucketed histogram can promise. Observations beyond the last
// bound report the last bound. Returns 0 with no observations.
//
// Quantile reads the live atomic cells, so it is safe to call from a
// flight-recorder trigger or an HTTP handler while the writer runs.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h == nil || h.nb == 0 {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for b := 0; b < h.nb; b++ {
		for li := 0; li < len(h.counts); li++ {
			cum += h.cells[li*h.nb+b].Load()
		}
		if cum >= rank {
			if b < len(h.bounds) {
				return h.bounds[b]
			}
			break
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// TimeBuckets converts bucket upper bounds in seconds (as produced by
// metrics.LogBuckets, the shared boundary source) to sim.Time bounds.
func TimeBuckets(secs []float64) []sim.Time {
	out := make([]sim.Time, len(secs))
	for i, s := range secs {
		out[i] = sim.FromSeconds(s)
	}
	return out
}

// DelayBuckets returns the canonical queueing-delay bucket set: four
// buckets per decade from 100 µs to ~56 s, shared by the per-class and
// link-level delay histograms.
func DelayBuckets() []sim.Time {
	return TimeBuckets(metrics.LogBuckets(1e-4, 4, 24))
}

// FCTBuckets returns the canonical flow-completion-time bucket set:
// four buckets per decade from 10 ms to ~5600 s.
func FCTBuckets() []sim.Time {
	return TimeBuckets(metrics.LogBuckets(1e-2, 4, 24))
}

// FCT size classes: the small-packet regime the paper is about
// (single-digit segments), mid-size web objects, and bulk transfers.
const (
	fctShortMaxBytes = 10_000
	fctMidMaxBytes   = 1_000_000
)

// FCTSizeLabels are the label values of the FCTHistogram vector, in
// FCTSizeClass index order.
var FCTSizeLabels = []string{"short", "mid", "long"}

// FCTSizeClass maps a transfer size to its FCTHistogram label index:
// short (<10 kB), mid (<1 MB), long.
func FCTSizeClass(sizeBytes int) int {
	switch {
	case sizeBytes < fctShortMaxBytes:
		return 0
	case sizeBytes < fctMidMaxBytes:
		return 1
	default:
		return 2
	}
}

// FCTHistogram registers the canonical flow-completion-time histogram,
// labeled by transfer size class. The simulator and the testbed both
// register it through here so dashboards see one schema.
func FCTHistogram(reg *Registry) *Histogram {
	return reg.HistogramVec("taq_fct_seconds",
		"Flow completion time by transfer size class (short <10kB, mid <1MB, long).",
		FCTBuckets(), "size", FCTSizeLabels)
}

// MetricsSnapshot is a plain-value copy of a registry. Snapshots merge
// by addition
// (per-shard registries aggregate into one exposition) and render to
// the Prometheus text format (promtext.go).
type MetricsSnapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// FamilySnapshot is one counter or gauge family's cells.
type FamilySnapshot[T uint64 | float64] struct {
	Name, Help, Label string
	LabelVals         []string // nil for an unlabelled family
	Values            []T      // one per label value (or the single cell)
}

// CounterSnapshot is one counter family's cells.
type CounterSnapshot = FamilySnapshot[uint64]

// GaugeSnapshot is one gauge family's cells.
type GaugeSnapshot = FamilySnapshot[float64]

// HistogramSnapshot is one histogram family's bucket rows.
type HistogramSnapshot struct {
	Name, Help, Label string
	LabelVals         []string
	Bounds            []sim.Time
	Buckets           [][]uint64 // [label row][bucket]; last is overflow; not cumulative
	Counts            []uint64
	Sums              []int64 // sim.Time sums
}

// Snapshot copies every cell: atomic loads for Counter and Histogram
// cells, the fill functions for CounterVecFunc and GaugeVecFunc
// families (so it runs where those families' owners run). Families are
// sorted by name, so the exposition ordering is stable whatever the
// registration order.
// Safe on a nil receiver (returns an empty snapshot).
func (r *Registry) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{}
	if r == nil {
		return s
	}
	s.Counters = make([]CounterSnapshot, 0, len(r.counters)+len(r.funcs))
	for _, c := range r.counters {
		cs := CounterSnapshot{Name: c.name, Help: c.help, Label: c.label,
			LabelVals: c.labelVals, Values: make([]uint64, len(c.cells))}
		for i := range c.cells {
			cs.Values[i] = c.cells[i].Load()
		}
		s.Counters = append(s.Counters, cs)
	}
	for _, f := range r.funcs {
		s.Counters = append(s.Counters, f.snapshot())
	}
	s.Gauges = make([]GaugeSnapshot, 0, len(r.gauges))
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, g.snapshot())
	}
	s.Histograms = make([]HistogramSnapshot, 0, len(r.hists))
	for _, h := range r.hists {
		hs := HistogramSnapshot{Name: h.name, Help: h.help, Label: h.label,
			LabelVals: h.labelVals, Bounds: h.bounds,
			Buckets: make([][]uint64, len(h.counts)),
			Counts:  make([]uint64, len(h.counts)),
			Sums:    make([]int64, len(h.counts)),
		}
		for li := range h.counts {
			row := make([]uint64, h.nb)
			for b := 0; b < h.nb; b++ {
				row[b] = h.cells[li*h.nb+b].Load()
			}
			hs.Buckets[li] = row
			hs.Counts[li] = h.counts[li].Load()
			hs.Sums[li] = h.sums[li].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Merge adds o's cells into s, gauges included (see GaugeVecFunc for
// the rule that makes summing them right). The two snapshots must have
// the same shape (same families, labels, and bounds — i.e. registries
// built by the same constructor code, the per-shard case); Merge
// panics on a shape mismatch, which is a wiring bug, not data.
func (s *MetricsSnapshot) Merge(o *MetricsSnapshot) {
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) || len(s.Histograms) != len(o.Histograms) {
		panic("obs: merging snapshots of different shapes")
	}
	mergeFamilies(s.Counters, o.Counters)
	mergeFamilies(s.Gauges, o.Gauges)
	for i := range s.Histograms {
		a, b := &s.Histograms[i], &o.Histograms[i]
		if a.Name != b.Name || len(a.Buckets) != len(b.Buckets) || len(a.Bounds) != len(b.Bounds) {
			panic("obs: merging snapshots of different shapes: " + a.Name)
		}
		for li := range a.Buckets {
			for bi := range a.Buckets[li] {
				a.Buckets[li][bi] += b.Buckets[li][bi]
			}
			a.Counts[li] += b.Counts[li]
			a.Sums[li] += b.Sums[li]
		}
	}
}

// mergeFamilies adds b's cells into a, family by family.
func mergeFamilies[T uint64 | float64](a, b []FamilySnapshot[T]) {
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Values) != len(b[i].Values) {
			panic("obs: merging snapshots of different shapes: " + a[i].Name)
		}
		for j := range a[i].Values {
			a[i].Values[j] += b[i].Values[j]
		}
	}
}

// Value returns the cell of the counter or gauge family named family
// whose label value is label ("" for an unlabelled family), reporting
// whether there is one.
func (s *MetricsSnapshot) Value(family, label string) (float64, bool) {
	if v, ok := cell(s.Counters, family, label); ok {
		return float64(v), true
	}
	return cell(s.Gauges, family, label)
}

// cell finds a Value cell among one kind's families.
func cell[T uint64 | float64](fams []FamilySnapshot[T], family, label string) (T, bool) {
	for i := range fams {
		f := &fams[i]
		if f.Name != family {
			continue
		}
		if len(f.LabelVals) == 0 && label == "" {
			return f.Values[0], true
		}
		if j := slices.Index(f.LabelVals, label); j >= 0 {
			return f.Values[j], true
		}
		break
	}
	return 0, false
}

// Quantile estimates the q-quantile (q in (0,1]) of label row li by
// nearest rank over the bucket upper bounds (see Histogram.Quantile).
// Returns 0 with no observations or an out-of-range row.
func (h *HistogramSnapshot) Quantile(li int, q float64) sim.Time {
	if li < 0 || li >= len(h.Counts) || h.Counts[li] == 0 || len(h.Bounds) == 0 {
		return 0
	}
	total := h.Counts[li]
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for b, n := range h.Buckets[li] {
		cum += n
		if cum >= rank {
			if b < len(h.Bounds) {
				return h.Bounds[b]
			}
			break
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// MergedSnapshot snapshots every registry and sums them into one view
// — the read edge of a sharded middlebox, where each shard records
// into its own registry and the union is materialized only at
// exposition time (obshttp /metrics, promtext artifacts). Gauges are
// summed too, which is right because per-shard registries carry only
// additive gauges: the loss EWMA and the waiting pools, which the
// shards share, are registered once per topology.Network, never per
// shard. The caller holds every registry owner's lock (Snapshot's read
// rule). All registries must carry the same schema (Merge panics
// otherwise); nil registries are skipped. With no non-nil registry the
// snapshot is empty.
func MergedSnapshot(regs ...*Registry) *MetricsSnapshot {
	var s *MetricsSnapshot
	for _, r := range regs {
		if r == nil {
			continue
		}
		if s == nil {
			s = r.Snapshot()
			continue
		}
		s.Merge(r.Snapshot())
	}
	if s == nil {
		return &MetricsSnapshot{}
	}
	return s
}
