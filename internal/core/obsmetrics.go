package core

import (
	"taq/internal/obs"
	"taq/internal/sim"
)

// Metrics is the middlebox's registry schema. NewMetrics registers it
// on a registry; SetMetrics binds it to a shard or to the whole
// middlebox. Every counter family reads the bound Stats, the one place
// each event is counted (with no binding it reads zero); the only cells
// Metrics owns are the per-class QueueDelay histogram's. A nil
// *Metrics (the default) disables the histogram: its record site
// guards on it, so the disabled path costs one branch and zero
// allocations, mirroring the nil-Recorder contract.
//
// In a sharded deployment each shard owns one Metrics over its own
// Registry; shard snapshots merge at the read edge
// (obs.MetricsSnapshot.Merge) because every bundle registers the same
// schema.
type Metrics struct {
	// QueueDelay is the per-class sojourn histogram
	// (taq_queue_delay_seconds{class=...}): dequeue time minus the
	// packet's Enqueued stamp.
	QueueDelay *obs.Histogram
	// stats reads the bound counters: one shard's Stats (TAQ.SetMetrics)
	// or their sum (Sharded.SetMetrics).
	stats func() Stats
}

// NewMetrics registers the TAQ middlebox schema on reg and returns the
// bundle. A nil registry yields a valid bundle with a nil histogram,
// but callers normally just leave the TAQ without a bundle instead.
func NewMetrics(reg *obs.Registry) *Metrics {
	classes := ClassLabels()
	m := &Metrics{QueueDelay: reg.HistogramVec("taq_queue_delay_seconds",
		"Bottleneck queueing delay from enqueue to dequeue, by class.",
		obs.DelayBuckets(), "class", classes)}
	m.counter(reg, "taq_drops_total",
		"Packets dropped by the middlebox, by victim class.", "class", classes,
		func(s *Stats, dst []uint64) { copy(dst, s.DropsByClass[:]) })
	m.counter(reg, "taq_retransmit_drops_total",
		"Dropped retransmissions (the loss events that force timeouts, §4.1).", "", nil,
		func(s *Stats, dst []uint64) { dst[0] = s.RtxDrops })
	m.counter(reg, "taq_policy_drops_total",
		"Drops from admission policy (blocked SYNs, un-admitted pools), excluded from the loss window.", "", nil,
		func(s *Stats, dst []uint64) { dst[0] = s.PolicyDrops })
	m.counter(reg, "taq_served_total",
		"Packets forwarded by the scheduler, by class.", "class", classes,
		func(s *Stats, dst []uint64) { copy(dst, s.ServedByClass[:]) })
	m.counter(reg, "taq_admission_decisions_total",
		"Admission-control rulings on pool SYNs (§4.3).", "decision",
		[]string{"blocked", "admitted", "forced"},
		func(s *Stats, dst []uint64) {
			dst[obs.AdmissionBlocked] = s.SynsBlocked
			dst[obs.AdmissionAdmitted] = s.PoolsAdmitted - s.PoolsForced
			dst[obs.AdmissionForced] = s.PoolsForced
		})
	m.counter(reg, "taq_tracker_transitions_total",
		"Flow-tracker state transitions, by destination state.", "to", StateLabels(),
		func(s *Stats, dst []uint64) { copy(dst, s.Transitions[:]) })
	m.counter(reg, "taq_timeouts_detected_total",
		"Tracker silence detections (flow concluded to be waiting out an RTO).", "", nil,
		func(s *Stats, dst []uint64) {
			dst[0] = s.Transitions[StateTimeoutSilence] + s.Transitions[StateExtendedSilence]
		})
	m.counter(reg, "taq_repetitive_timeouts_total",
		"Transitions into extended silence — the repetitive-timeout regime the paper targets.", "", nil,
		func(s *Stats, dst []uint64) { dst[0] = s.Transitions[StateExtendedSilence] })
	return m
}

// counter registers one counter family read from the bound Stats.
func (m *Metrics) counter(reg *obs.Registry, name, help, label string, values []string, read func(s *Stats, dst []uint64)) {
	reg.CounterVecFunc(name, help, label, values, func(dst []uint64) {
		if m.stats != nil {
			s := m.stats()
			read(&s, dst)
		}
	})
}

// SetMetrics installs the bundle on the shard: its serve path feeds the
// histogram and the counter families read this shard's Stats. A nil
// bundle (the default) disables metrics.
func (t *TAQ) SetMetrics(mx *Metrics) {
	t.mx = mx
	if mx != nil {
		mx.stats = func() Stats { return t.Stats }
	}
}

// observeServe records a forwarded packet's sojourn time by class.
//
//taq:hotpath nil-receiver metrics hook on the per-packet serve path
func (m *Metrics) observeServe(class Class, sojourn sim.Time) {
	if m == nil {
		return
	}
	m.QueueDelay.ObserveAt(int(class), sojourn)
}
