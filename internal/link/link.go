// Package link models the bottleneck link, which serializes packets at
// a configured rate out of a queue.Discipline. The uncongested paths
// around it (access links and the reverse ACK path, which per the paper
// carry no congestion) are plain delays and belong to whoever wires the
// scenario: sim.AfterArg events in internal/topology.
package link

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
)

// Bps is a link rate in bits per second.
type Bps float64

// Common rates.
const (
	Kbps Bps = 1e3
	Mbps Bps = 1e6
)

// TxTime returns the serialization time of size bytes at rate r.
func (r Bps) TxTime(size int) sim.Time {
	if r <= 0 {
		return 0
	}
	return sim.Time(float64(size*8) / float64(r) * float64(sim.Second))
}

// Link is a store-and-forward bottleneck: arriving packets enter the
// queue discipline; the link drains the discipline at Rate, delivering
// each packet after its serialization time plus the propagation Delay.
type Link struct {
	run     sim.Runner
	rate    Bps
	delay   sim.Time
	disc    queue.Discipline
	busy    bool
	deliver func(*packet.Packet)
	rec     *obs.Recorder
	mx      *Metrics

	// txPkt is the packet currently serializing. prop holds packets in
	// propagation: the delay is constant, so propagation arrivals occur
	// in departure order and a FIFO carries exactly the per-packet state
	// the delivery closures used to capture. txDone and deliverNext are
	// bound once in New so the per-packet path allocates no closures.
	txPkt       *packet.Packet
	prop        queue.FIFO
	txDone      func()
	deliverNext func()

	// Stats.
	SentPackets  uint64
	SentBytes    uint64
	BusyTime     sim.Time // accumulated serialization time (utilization)
	lastTxFinish sim.Time
}

// New returns a link draining disc at rate with propagation delay,
// handing packets to deliver after serialization+propagation.
func New(run sim.Runner, rate Bps, delay sim.Time, disc queue.Discipline, deliver func(*packet.Packet)) *Link {
	l := &Link{run: run, rate: rate, delay: delay, disc: disc, deliver: deliver}
	// Bind the timer callbacks once: a method value allocates, so taking
	// them here keeps pump/finishTx closure-free per packet.
	l.txDone = l.finishTx
	l.deliverNext = l.deliverHead
	return l
}

// Discipline returns the queue discipline, e.g. for stats.
func (l *Link) Discipline() queue.Discipline { return l.disc }

// SetRecorder installs a trace recorder. The link is the chokepoint
// every discipline's traffic flows through, so it records the generic
// enqueue/dequeue lifecycle (class -1); TAQ adds its class-specific
// events itself. A nil recorder (the default) disables tracing.
func (l *Link) SetRecorder(rec *obs.Recorder) { l.rec = rec }

// Rate returns the link rate.
func (l *Link) Rate() Bps { return l.rate }

// Enqueue offers p to the link's queue and starts transmission if the
// link is idle. Drops are reported through the discipline's drop hook.
//
//taq:hotpath every packet of every experiment crosses the bottleneck here
func (l *Link) Enqueue(p *packet.Packet) {
	p.Enqueued = l.run.Now()
	if l.rec != nil {
		l.rec.Enqueue(p.Enqueued, p, -1)
	}
	l.disc.Enqueue(p)
	l.pump()
}

func (l *Link) pump() {
	if l.busy {
		return
	}
	p := l.disc.Dequeue()
	if p == nil {
		return
	}
	if l.rec != nil {
		l.rec.Dequeue(l.run.Now(), p, -1)
	}
	if l.mx != nil {
		// Guarded so the sojourn arithmetic is skipped when metrics are
		// off, per the nil-hook convention.
		l.mx.observeDequeue(l.run.Now() - p.Enqueued)
	}
	l.busy = true
	l.txPkt = p
	tx := l.rate.TxTime(p.Size)
	l.BusyTime += tx
	// Fire-and-forget per-packet events go through sim.After with the
	// prebuilt callback so the hottest scheduling site in every
	// experiment allocates neither a timer nor a closure.
	sim.After(l.run, tx, l.txDone)
}

// finishTx runs when the serializing packet's last bit leaves the
// link: it moves the packet into the propagation FIFO, schedules its
// delivery one propagation delay out, and starts the next
// transmission.
func (l *Link) finishTx() {
	p := l.txPkt
	l.txPkt = nil
	l.busy = false
	l.SentPackets++
	l.SentBytes += uint64(p.Size)
	l.lastTxFinish = l.run.Now()
	l.prop.Push(p)
	sim.After(l.run, l.delay, l.deliverNext)
	l.pump()
}

// deliverHead hands the oldest in-propagation packet to the sink.
func (l *Link) deliverHead() {
	l.deliver(l.prop.Pop())
}

// Utilization returns BusyTime divided by elapsed, the fraction of time
// the link was transmitting over [0, elapsed].
func (l *Link) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.BusyTime) / float64(elapsed)
}
