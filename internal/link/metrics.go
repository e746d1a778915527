package link

import (
	"taq/internal/obs"
	"taq/internal/sim"
)

// Metrics is the link's registry schema: transmit counters, read from
// the bound link's SentPackets/SentBytes (zero until SetMetrics), and
// the discipline-agnostic sojourn histogram (TAQ's per-class histogram
// refines the same delay by victim class; this one also covers the
// baseline disciplines). A nil *Metrics disables recording, matching
// the nil-Recorder contract.
type Metrics struct {
	// QueueDelay is the enqueue-to-dequeue sojourn across whatever
	// discipline the link drains (taq_link_queue_delay_seconds).
	QueueDelay *obs.Histogram
	// link is the counter source SetMetrics binds.
	link *Link
}

// NewMetrics registers the link schema on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{QueueDelay: reg.Histogram("taq_link_queue_delay_seconds",
		"Bottleneck sojourn time from enqueue to dequeue, all classes.",
		obs.DelayBuckets())}
	reg.CounterVecFunc("taq_link_tx_packets_total",
		"Packets fully serialized onto the bottleneck link.", "", nil,
		func(dst []uint64) {
			if m.link != nil {
				dst[0] = m.link.SentPackets
			}
		})
	reg.CounterVecFunc("taq_link_tx_bytes_total",
		"Bytes fully serialized onto the bottleneck link.", "", nil,
		func(dst []uint64) {
			if m.link != nil {
				dst[0] = m.link.SentBytes
			}
		})
	return m
}

// observeDequeue records a packet leaving the queue onto the wire.
//
//taq:hotpath nil-receiver metrics hook on the link pump path
func (m *Metrics) observeDequeue(sojourn sim.Time) {
	if m == nil {
		return
	}
	m.QueueDelay.Observe(sojourn)
}

// SetMetrics installs the bundle on the link and binds its counters to
// the link's. A nil bundle (the default) disables metrics.
func (l *Link) SetMetrics(mx *Metrics) {
	l.mx = mx
	if mx != nil {
		mx.link = l
	}
}
