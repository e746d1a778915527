package core

import (
	"taq/internal/obs"
	"taq/internal/sim"
)

// Metrics bundles the middlebox's registry instruments. NewMetrics
// registers the full TAQ schema on a registry; SetMetrics installs the
// bundle on a TAQ instance. A nil *Metrics (the default) disables
// metrics: every record site guards on it, so the disabled path costs
// one branch and zero allocations, mirroring the nil-Recorder
// contract. Label indices are the enum values themselves (Class,
// FlowState, obs.Admission* codes), so recording is a direct IncAt
// with no lookup.
//
// In a sharded deployment each shard owns one Metrics over its own
// Registry; shard snapshots merge at the read edge
// (obs.MetricsSnapshot.Merge) because every bundle registers the same
// schema.
type Metrics struct {
	// Drops counts dropped packets by victim class
	// (taq_drops_total{class=...}); RtxDrops the subset that were
	// retransmissions — the §4.1 event that forces a timeout; and
	// PolicyDrops the subset that were admission policy, not
	// congestion.
	Drops       *obs.Counter
	RtxDrops    *obs.Counter
	PolicyDrops *obs.Counter
	// Served counts forwarded packets by class
	// (taq_served_total{class=...}).
	Served *obs.Counter
	// QueueDelay is the per-class sojourn histogram
	// (taq_queue_delay_seconds{class=...}): dequeue time minus the
	// packet's Enqueued stamp.
	QueueDelay *obs.Histogram
	// Admission counts §4.3 rulings
	// (taq_admission_decisions_total{decision=...}), indexed by the
	// obs.Admission* codes.
	Admission *obs.Counter
	// Transitions counts tracker state entries
	// (taq_tracker_transitions_total{to=...}); Timeouts the subset
	// that were silence detections, RepTimeouts the extended-silence
	// (repetitive-timeout regime) subset.
	Transitions *obs.Counter
	Timeouts    *obs.Counter
	RepTimeouts *obs.Counter
}

// NewMetrics registers the TAQ middlebox schema on reg and returns the
// bundle. A nil registry yields a valid bundle of nil instruments
// (every record call a no-op), but callers normally just leave the TAQ
// without a bundle instead.
func NewMetrics(reg *obs.Registry) *Metrics {
	classes := ClassLabels()
	return &Metrics{
		Drops: reg.CounterVec("taq_drops_total",
			"Packets dropped by the middlebox, by victim class.", "class", classes),
		RtxDrops: reg.Counter("taq_retransmit_drops_total",
			"Dropped retransmissions (the loss events that force timeouts, §4.1)."),
		PolicyDrops: reg.Counter("taq_policy_drops_total",
			"Drops from admission policy (blocked SYNs, un-admitted pools), excluded from the loss window."),
		Served: reg.CounterVec("taq_served_total",
			"Packets forwarded by the scheduler, by class.", "class", classes),
		QueueDelay: reg.HistogramVec("taq_queue_delay_seconds",
			"Bottleneck queueing delay from enqueue to dequeue, by class.",
			obs.DelayBuckets(), "class", classes),
		Admission: reg.CounterVec("taq_admission_decisions_total",
			"Admission-control rulings on pool SYNs (§4.3).", "decision",
			[]string{"blocked", "admitted", "forced"}),
		Transitions: reg.CounterVec("taq_tracker_transitions_total",
			"Flow-tracker state transitions, by destination state.", "to", StateLabels()),
		Timeouts: reg.Counter("taq_timeouts_detected_total",
			"Tracker silence detections (flow concluded to be waiting out an RTO)."),
		RepTimeouts: reg.Counter("taq_repetitive_timeouts_total",
			"Transitions into extended silence — the repetitive-timeout regime the paper targets."),
	}
}

// SetMetrics installs the bundle on the middlebox, the tracker and the
// admission controller. A nil bundle (the default) disables metrics.
func (t *TAQ) SetMetrics(mx *Metrics) {
	t.mx = mx
	t.tracker.mx = mx
	t.agg.setMetrics(mx)
}

// observeServe records a forwarded packet's class and sojourn time.
//
//taq:hotpath nil-receiver metrics hook on the per-packet serve path
func (m *Metrics) observeServe(class Class, sojourn sim.Time) {
	if m == nil {
		return
	}
	m.Served.IncAt(int(class))
	m.QueueDelay.ObserveAt(int(class), sojourn)
}

// observeDrop records a drop's victim class and retransmission status.
//
//taq:hotpath nil-receiver metrics hook on the per-packet drop path
func (m *Metrics) observeDrop(class Class, rtx bool) {
	if m == nil {
		return
	}
	m.Drops.IncAt(int(class))
	if rtx {
		m.RtxDrops.Inc()
	}
}

// observeTransition records a tracker state entry (and its timeout
// subsets).
//
//taq:hotpath nil-receiver metrics hook on the tracker path
func (m *Metrics) observeTransition(to FlowState) {
	if m == nil {
		return
	}
	m.Transitions.IncAt(int(to))
	if to == StateTimeoutSilence || to == StateExtendedSilence {
		m.Timeouts.Inc()
		if to == StateExtendedSilence {
			m.RepTimeouts.Inc()
		}
	}
}

// observeAdmission records an admission ruling (an obs.Admission*
// code).
//
//taq:hotpath nil-receiver metrics hook on the admission path
func (m *Metrics) observeAdmission(decision uint8) {
	if m == nil {
		return
	}
	m.Admission.IncAt(int(decision))
}
