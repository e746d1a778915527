package queue

import (
	"math"
	"math/rand"

	"taq/internal/packet"
	"taq/internal/sim"
)

// REDConfig parameterizes a RED queue (Floyd & Jacobson 1993). Zero
// values are filled with the classic recommendations relative to the
// capacity.
type REDConfig struct {
	// Capacity is the hard limit in packets.
	Capacity int
	// MinTh and MaxTh are the average-queue thresholds in packets.
	// Defaults: Capacity/4 and 3*Capacity/4 (min 1 apart).
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh. Default 0.1.
	MaxP float64
	// Weight is the EWMA weight w_q. Default 0.002.
	Weight float64
	// MeanPktTime is the estimated transmission time of one packet at
	// the output link, used to decay the average while the queue is
	// idle. Required (no sensible default exists without link speed).
	MeanPktTime sim.Time
}

// RED implements Random Early Detection with the count-based
// uniformization from the original paper. The paper under reproduction
// (§2.4) finds RED behaves like DropTail in small packet regimes because
// the average queue sits pinned above MaxTh; the implementation here is
// used to verify that claim.
type RED struct {
	DropHook
	cfg   REDConfig
	fifo  FIFO
	now   func() sim.Time
	rng   *rand.Rand
	avg   float64
	count int // packets since last early drop
	// idleSince is the time the queue went empty, or -1 while busy.
	idleSince sim.Time
}

// NewRED returns a RED queue. now supplies the current virtual time and
// rng the randomness source for drop decisions.
func NewRED(cfg REDConfig, now func() sim.Time, rng *rand.Rand) *RED {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.MinTh == 0 {
		cfg.MinTh = math.Max(1, float64(cfg.Capacity)/4)
	}
	if cfg.MaxTh == 0 {
		cfg.MaxTh = math.Max(cfg.MinTh+1, 3*float64(cfg.Capacity)/4)
	}
	if cfg.MaxP == 0 {
		cfg.MaxP = 0.1
	}
	if cfg.Weight == 0 {
		cfg.Weight = 0.002
	}
	if cfg.MeanPktTime <= 0 {
		cfg.MeanPktTime = sim.Millisecond
	}
	return &RED{cfg: cfg, now: now, rng: rng, count: -1, idleSince: 0}
}

// AvgQueue returns the current EWMA of the queue length, for tests and
// instrumentation.
func (q *RED) AvgQueue() float64 { return q.avg }

// Enqueue implements Discipline.
//
//taq:hotpath per-packet path of the RED baseline
func (q *RED) Enqueue(p *packet.Packet) {
	// Update the average queue size, decaying across idle periods.
	if q.fifo.Len() == 0 && q.idleSince >= 0 {
		m := float64(q.now()-q.idleSince) / float64(q.cfg.MeanPktTime)
		if m > 0 {
			q.avg *= math.Pow(1-q.cfg.Weight, m)
		}
		q.idleSince = -1
	}
	q.avg = (1-q.cfg.Weight)*q.avg + q.cfg.Weight*float64(q.fifo.Len())

	switch {
	case q.fifo.Len() >= q.cfg.Capacity:
		// Hard limit: forced drop.
		q.count = 0
		q.Drop(p)
		return
	case q.avg >= q.cfg.MaxTh:
		q.count = 0
		q.Drop(p)
		return
	case q.avg >= q.cfg.MinTh:
		q.count++
		pb := q.cfg.MaxP * (q.avg - q.cfg.MinTh) / (q.cfg.MaxTh - q.cfg.MinTh)
		pa := pb
		if d := 1 - float64(q.count)*pb; d > 0 {
			pa = pb / d
		} else {
			pa = 1
		}
		if q.rng.Float64() < pa {
			q.count = 0
			q.Drop(p)
			return
		}
	default:
		q.count = -1
	}
	q.fifo.Push(p)
}

// Dequeue implements Discipline.
//
//taq:hotpath per-packet path of the RED baseline
func (q *RED) Dequeue() *packet.Packet {
	p := q.fifo.Pop()
	if p != nil && q.fifo.Len() == 0 {
		q.idleSince = q.now()
	}
	return p
}

// Len implements Discipline.
func (q *RED) Len() int { return q.fifo.Len() }

// Bytes implements Discipline.
func (q *RED) Bytes() int { return q.fifo.Bytes() }

var _ Discipline = (*RED)(nil)
