// Package tfrc implements TCP-Friendly Rate Control (RFC 5348,
// simplified to the simulator's packet granularity). The paper's
// introduction argues that TFRC, like every TCP variant, assumes a
// fair share of at least ~1 packet per RTT (its equation rate is at
// least sqrt(3/2)/RTT packets for any loss rate p < 1) and therefore
// cannot rescue the sub-packet regime; this package provides the
// baseline that lets the experiments demonstrate that claim.
//
// The implementation follows the RFC's structure: the receiver
// measures the loss-event rate with the weighted average of the last
// eight loss intervals and feeds back once per RTT; the sender paces
// packets at the throughput-equation rate, doubles its rate per RTT
// while no loss has been seen (slow start), caps at twice the reported
// receive rate, and halves on a no-feedback timer.
package tfrc

import (
	"math"

	"taq/internal/packet"
	"taq/internal/sim"
)

// Config carries TFRC parameters.
type Config struct {
	// MSS is the data packet wire size in bytes.
	MSS int
	// FeedbackSize is the wire size of receiver reports.
	FeedbackSize int
	// InitialRTT seeds the RTT estimate before feedback arrives; the
	// sender starts at one packet per InitialRTT.
	InitialRTT sim.Time
	// MinInterval is the largest allowed inter-packet gap (RFC 5348's
	// t_mbi, 64 s: at least one packet per 64 seconds).
	MinInterval sim.Time
	// MaxRate caps the send rate in bytes/second (a stand-in for the
	// application and interface limits real TFRC runs under).
	MaxRate float64
}

// DefaultConfig returns RFC-flavored defaults matched to the paper's
// 500-byte packets.
func DefaultConfig() Config {
	return Config{
		MSS:          500,
		FeedbackSize: 40,
		InitialRTT:   200 * sim.Millisecond,
		MinInterval:  64 * sim.Second,
		MaxRate:      1.25e6, // 10 Mbps
	}
}

// lossIntervalWeights are RFC 5348's average-loss-interval weights.
var lossIntervalWeights = []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}

// equationRate returns the TCP throughput equation X_Bps for segment
// size s (bytes), round-trip time r, and loss event rate p (RFC 5348
// §3.1, with b = 1 and t_RTO = 4·RTT).
func equationRate(s float64, r sim.Time, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	rtt := r.Seconds()
	if rtt <= 0 {
		rtt = 0.001
	}
	denom := rtt*math.Sqrt(2*p/3) +
		4*rtt*3*math.Sqrt(3*p/8)*p*(1+32*p*p)
	return s / denom
}

// Sender is a TFRC data sender. Drive it with Start and Deliver
// (feedback packets); it emits paced data through out.
type Sender struct {
	run  sim.Runner
	cfg  Config
	flow packet.FlowID
	pool packet.PoolID
	out  func(*packet.Packet)

	rate    float64 // bytes/second
	rtt     sim.Time
	haveRTT bool
	inSS    bool // slow-start (no loss reported yet)
	seq     int

	paceTimer  *sim.Timer
	nfTimer    *sim.Timer
	nfInterval sim.Time
	stopped    bool

	// Stats.
	PacketsSent   uint64
	FeedbackSeen  uint64
	RateHalvings  uint64 // no-feedback timer expiries
	LastLossRate  float64
	CurrentRateBs float64
}

// NewSender creates a TFRC sender.
func NewSender(run sim.Runner, cfg Config, flow packet.FlowID, pool packet.PoolID, out func(*packet.Packet)) *Sender {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	return &Sender{run: run, cfg: cfg, flow: flow, pool: pool, out: out, inSS: true,
		rtt: cfg.InitialRTT, rate: float64(cfg.MSS) / cfg.InitialRTT.Seconds()}
}

// Rate returns the current send rate in bytes/second.
func (s *Sender) Rate() float64 { return s.rate }

// RTT returns the current RTT estimate.
func (s *Sender) RTT() sim.Time { return s.rtt }

// Start begins paced transmission.
func (s *Sender) Start() {
	if s.paceTimer != nil || s.stopped {
		return
	}
	s.sendNext()
	s.armNoFeedback()
}

// Stop halts transmission and timers.
func (s *Sender) Stop() {
	s.stopped = true
	s.paceTimer.Cancel()
	s.nfTimer.Cancel()
}

func (s *Sender) sendNext() {
	if s.stopped {
		return
	}
	now := s.run.Now()
	s.out(&packet.Packet{
		Flow: s.flow, Pool: s.pool, Kind: packet.Data,
		Seq: s.seq, Size: s.cfg.MSS, Sent: now,
	})
	s.seq++
	s.PacketsSent++
	gap := sim.FromSeconds(float64(s.cfg.MSS) / s.rate)
	if gap > s.cfg.MinInterval {
		gap = s.cfg.MinInterval
	}
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	s.paceTimer = s.run.Reschedule(s.paceTimer, gap, s.sendNext)
}

func (s *Sender) armNoFeedback() {
	s.nfInterval = 4 * s.rtt
	if !s.haveRTT {
		s.nfInterval = 2 * sim.Second
	}
	s.nfTimer = s.run.Reschedule(s.nfTimer, s.nfInterval, s.onNoFeedback)
}

func (s *Sender) onNoFeedback() {
	if s.stopped {
		return
	}
	// Halve the rate, bounded below by one packet per MinInterval.
	floor := float64(s.cfg.MSS) / s.cfg.MinInterval.Seconds()
	s.rate /= 2
	if s.rate < floor {
		s.rate = floor
	}
	s.RateHalvings++
	s.CurrentRateBs = s.rate
	s.armNoFeedback()
}

// Deliver hands the sender a packet from the network; only feedback
// reports are meaningful.
func (s *Sender) Deliver(p *packet.Packet) {
	if s.stopped || p.Kind != packet.Feedback {
		return
	}
	s.FeedbackSeen++
	// RTT sample from the echoed send timestamp, minus the receiver's
	// hold time.
	if sample := s.run.Now() - p.EchoSent - p.FbHold; sample > 0 {
		if !s.haveRTT {
			s.rtt = sample
			s.haveRTT = true
		} else {
			s.rtt = (7*s.rtt + sample) / 8
		}
	}
	pLoss := p.FbLossRate
	xRecv := p.FbRecvRate
	s.LastLossRate = pLoss
	defer func() {
		if s.cfg.MaxRate > 0 && s.rate > s.cfg.MaxRate {
			s.rate = s.cfg.MaxRate
		}
		s.CurrentRateBs = s.rate
	}()
	switch {
	case pLoss <= 0 && s.inSS:
		// Slow start: double per feedback (≈ per RTT), capped at
		// twice the receive rate.
		next := s.rate * 2
		if cap := 2 * xRecv; xRecv > 0 && next > cap {
			next = cap
		}
		if next > s.rate {
			s.rate = next
		}
	default:
		s.inSS = false
		x := equationRate(float64(s.cfg.MSS), s.rtt, pLoss)
		if cap := 2 * xRecv; xRecv > 0 && x > cap {
			x = cap
		}
		floor := float64(s.cfg.MSS) / s.cfg.MinInterval.Seconds()
		if x < floor {
			x = floor
		}
		s.rate = x
	}
	s.CurrentRateBs = s.rate
	s.armNoFeedback()
}

// Receiver is a TFRC data receiver: it measures the loss-event rate
// and receive rate and reports once per RTT.
type Receiver struct {
	run  sim.Runner
	cfg  Config
	flow packet.FlowID
	pool packet.PoolID
	out  func(*packet.Packet)

	maxSeq       int // highest sequence seen
	firstPacket  bool
	lastLossTime sim.Time
	// lastDataSent/lastDataAt echo the most recent data packet's send
	// time and its arrival time, for sender RTT sampling.
	lastDataSent sim.Time
	lastDataAt   sim.Time
	// intervals holds the most recent loss intervals, newest first;
	// the current (open) interval is intervals[0].
	intervals []float64

	// Receive-rate measurement window.
	winStart sim.Time
	winBytes int

	fbTimer *sim.Timer
	rtt     sim.Time

	// OnDeliver reports newly arrived segments (loss-tolerant stream:
	// every data packet counts).
	OnDeliver func(n int)

	// Stats.
	PacketsReceived uint64
	LossEvents      uint64
	FeedbackSent    uint64
}

// NewReceiver creates a TFRC receiver. out transmits feedback toward
// the sender.
func NewReceiver(run sim.Runner, cfg Config, flow packet.FlowID, pool packet.PoolID, out func(*packet.Packet)) *Receiver {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	return &Receiver{
		run: run, cfg: cfg, flow: flow, pool: pool, out: out,
		maxSeq: -1, rtt: cfg.InitialRTT,
		intervals: []float64{0},
	}
}

// LossEventRate returns the current weighted loss-event rate estimate.
func (r *Receiver) LossEventRate() float64 {
	if r.LossEvents == 0 {
		return 0
	}
	// Weighted average of loss intervals (RFC 5348 §5.4). The open
	// interval is included when that raises the average (favoring
	// recent loss-free stretches).
	avg := weightedInterval(r.intervals[1:])
	withOpen := weightedInterval(r.intervals)
	if withOpen > avg {
		avg = withOpen
	}
	if avg <= 0 {
		return 1
	}
	p := 1 / avg
	if p > 1 {
		p = 1
	}
	return p
}

func weightedInterval(iv []float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	n := len(iv)
	if n > len(lossIntervalWeights) {
		n = len(lossIntervalWeights)
	}
	var sum, wsum float64
	for i := 0; i < n; i++ {
		sum += iv[i] * lossIntervalWeights[i]
		wsum += lossIntervalWeights[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Deliver processes a data packet.
func (r *Receiver) Deliver(p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	now := r.run.Now()
	r.PacketsReceived++
	r.winBytes += p.Size
	r.lastDataSent, r.lastDataAt = p.Sent, now
	if !r.firstPacket {
		r.firstPacket = true
		r.winStart = now
		r.fbTimer = r.run.Reschedule(r.fbTimer, r.rtt, r.sendFeedback)
	}
	if p.Seq > r.maxSeq+1 {
		// Sequence gap: lost packets. Gaps within one RTT of the last
		// loss belong to the same loss event (RFC 5348 §5.2).
		lost := p.Seq - r.maxSeq - 1
		if now-r.lastLossTime > r.rtt || r.LossEvents == 0 {
			r.LossEvents++
			r.lastLossTime = now
			// Close the open interval, start a new one.
			r.intervals = append([]float64{0}, r.intervals...)
			if len(r.intervals) > len(lossIntervalWeights)+1 {
				r.intervals = r.intervals[:len(lossIntervalWeights)+1]
			}
		}
		_ = lost
	}
	if p.Seq > r.maxSeq {
		r.maxSeq = p.Seq
	}
	r.intervals[0]++ // packets in the open interval
	if r.OnDeliver != nil {
		r.OnDeliver(1)
	}
}

func (r *Receiver) sendFeedback() {
	now := r.run.Now()
	elapsed := (now - r.winStart).Seconds()
	xRecv := 0.0
	if elapsed > 0 {
		xRecv = float64(r.winBytes) / elapsed
	}
	r.out(&packet.Packet{
		Flow: r.flow, Pool: r.pool, Kind: packet.Feedback,
		Size:       r.cfg.FeedbackSize,
		Sent:       now,
		EchoSent:   r.lastDataSent,
		FbHold:     now - r.lastDataAt,
		FbLossRate: r.LossEventRate(),
		FbRecvRate: xRecv,
	})
	r.FeedbackSent++
	r.winStart = now
	r.winBytes = 0
	// Periodic reports once per RTT while data flows; the timer just
	// fired, so Reschedule re-arms it in place.
	r.fbTimer = r.run.Reschedule(r.fbTimer, r.rtt, r.sendFeedback)
}

// Stop cancels the receiver's feedback timer.
func (r *Receiver) Stop() { r.fbTimer.Cancel() }
