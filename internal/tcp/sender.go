package tcp

import (
	"taq/internal/packet"
	"taq/internal/sim"
)

// Sender state machine states.
type senderState uint8

const (
	stateClosed senderState = iota
	stateSynSent
	stateEstablished
	stateFailed
)

// txInfo is what the sender keeps per segment of [cumAck, highTx).
type txInfo struct {
	sentAt sim.Time
	sent   bool // transmitted at least once; sentAt and rexmit are valid
	rexmit bool
	sacked bool // the receiver reported holding it
}

// Sender is the TCP sender half of a flow. It is driven entirely by its
// sim.Runner (timers) and by Deliver (packets from the network); all
// outgoing packets go through the out callback.
type Sender struct {
	run  sim.Runner
	cfg  Config
	flow packet.FlowID
	pool packet.PoolID
	app  App
	out  func(*packet.Packet)

	state senderState

	// Sequence state (segment granularity).
	nextSeq int // next segment to (re)transmit in order
	highTx  int // highest segment index ever transmitted + 1
	cumAck  int // all segments below cumAck are acked

	// Congestion state.
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inRecovery  bool
	recover     int  // recovery ends when cumAck >= recover
	rexmitNext  int  // first hole not yet retransmitted this recovery
	partialSeen bool // a partial ack was seen this recovery (RFC 6582 Impatient)

	// win has base cumAck and covers [cumAck, highTx); nSacked counts
	// its sacked records.
	win     seqRing[txInfo]
	nSacked int

	// RTO state (RFC 6298).
	srtt, rttvar sim.Time
	haveSRTT     bool
	rto          sim.Time
	backoff      int
	rtoTimer     *sim.Timer

	// Handshake state.
	synTimer   *sim.Timer
	synSentAt  sim.Time
	synRetries int
	synRexmit  bool

	// CUBIC growth state (Variant == VariantCubic).
	cubic cubicState

	// Sub-packet pacing state (Variant == VariantSubPacket).
	nextPaced sim.Time
	paceTimer *sim.Timer

	// Timer callbacks, bound once in NewSender: a method value or
	// literal re-created on every arm is an allocation per arm.
	rtoFn, synTimeoutFn, paceFn func()

	// Packets is where outgoing packets are drawn from; nil allocates
	// each one. Whoever sets it takes on returning packets to the same
	// pool once no reference survives (see packet.Pool).
	Packets *packet.Pool

	// Stats accumulates per-sender counters.
	Stats Stats

	// OnEstablished fires once when the handshake completes.
	OnEstablished func()
	// OnFail fires if SYN retries are exhausted.
	OnFail func()
}

// NewSender creates a sender for the given flow. out transmits packets
// into the network (toward the bottleneck).
func NewSender(run sim.Runner, cfg Config, flow packet.FlowID, pool packet.PoolID, app App, out func(*packet.Packet)) *Sender {
	rto := cfg.InitialRTO
	if cfg.FixedRTO > 0 {
		rto = cfg.FixedRTO
	}
	s := &Sender{
		run:     run,
		cfg:     cfg,
		flow:    flow,
		pool:    pool,
		app:     app,
		out:     out,
		backoff: 1,
		rto:     rto,
	}
	s.rtoFn = s.onRTO
	s.synTimeoutFn = s.onSynTimeout
	s.paceFn = s.onPace
	return s
}

// newPacket draws a packet of the given kind and size from the
// sender's pool, stamped with the flow and the send time.
func (s *Sender) newPacket(kind packet.Kind, size int, rexmit bool) *packet.Packet {
	p := s.Packets.Get()
	p.Flow, p.Pool, p.Kind = s.flow, s.pool, kind
	p.Size, p.Retransmit, p.Sent = size, rexmit, s.run.Now()
	return p
}

// Flow returns the sender's flow ID.
func (s *Sender) Flow() packet.FlowID { return s.flow }

// CumAck returns the current cumulative acknowledgment (segments).
func (s *Sender) CumAck() int { return s.cumAck }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Backoff returns the current RTO backoff multiplier.
func (s *Sender) Backoff() int { return s.backoff }

// Established reports whether the handshake has completed.
func (s *Sender) Established() bool { return s.state == stateEstablished }

// Failed reports whether the connection gave up during the handshake.
func (s *Sender) Failed() bool { return s.state == stateFailed }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }

// RTO returns the current base retransmission timeout (before backoff).
func (s *Sender) RTO() sim.Time { return s.rto }

// Quiet reports whether no timer of the sender is armed — handshake,
// retransmission or pacing — so that only a delivered packet can make
// it act again. It reads the sender's own state: a timer handle says
// nothing about having fired, and on a wall-clock runner nothing about
// being queued.
func (s *Sender) Quiet() bool {
	// sendSyn arms the handshake timer and every way out of stateSynSent
	// disarms it; onRTO and onPace drop or re-arm their handle when they
	// fire.
	return s.state != stateSynSent && !armed(s.rtoTimer) && !armed(s.paceTimer)
}

// armed reports whether t is a handle whose callback is still to run,
// given an owner that drops or re-arms the handle whenever it fires.
func armed(t *sim.Timer) bool { return t != nil && !t.Canceled() }

// Start begins the connection handshake.
func (s *Sender) Start() {
	if s.state != stateClosed {
		return
	}
	s.state = stateSynSent
	s.sendSyn(false)
}

// Stop cancels all pending timers; the sender becomes inert.
func (s *Sender) Stop() {
	s.rtoTimer.Cancel()
	s.synTimer.Cancel()
	s.paceTimer.Cancel()
	s.rtoTimer, s.synTimer, s.paceTimer = nil, nil, nil
	s.state = stateClosed
}

func (s *Sender) sendSyn(rexmit bool) {
	if rexmit {
		s.synRexmit = true
		s.Stats.SynRetries++
	} else {
		s.synSentAt = s.run.Now()
	}
	s.out(s.newPacket(packet.Syn, s.cfg.SynSize, rexmit))
	timeout := s.cfg.SynTimeout
	for i := 0; i < s.synRetries; i++ {
		timeout *= 2
		if s.cfg.MaxSynTimeout > 0 && timeout >= s.cfg.MaxSynTimeout {
			timeout = s.cfg.MaxSynTimeout
			break
		}
	}
	s.synTimer = s.run.Reschedule(s.synTimer, timeout, s.synTimeoutFn)
}

func (s *Sender) onSynTimeout() {
	if s.state != stateSynSent {
		return
	}
	s.synRetries++
	if s.cfg.MaxSynRetries >= 0 && s.synRetries > s.cfg.MaxSynRetries {
		s.state = stateFailed
		if s.OnFail != nil {
			s.OnFail()
		}
		return
	}
	s.sendSyn(true)
}

// Deliver hands the sender a packet from the network (SynAck or Ack).
func (s *Sender) Deliver(p *packet.Packet) {
	switch p.Kind {
	case packet.SynAck:
		s.onSynAck()
	case packet.Ack:
		s.onAck(p)
	}
}

func (s *Sender) onSynAck() {
	if s.state != stateSynSent {
		return
	}
	s.synTimer.Cancel()
	s.synTimer = nil
	s.state = stateEstablished
	s.cwnd = s.cfg.InitialCwnd
	s.ssthresh = s.cfg.InitialSsthresh
	if !s.synRexmit {
		s.rttSample(s.run.Now() - s.synSentAt)
	}
	if s.OnEstablished != nil {
		s.OnEstablished()
	}
	s.trySend()
}

// window returns the current send window in whole segments.
func (s *Sender) window() int {
	w := s.cwnd
	if w > s.cfg.MaxWindow {
		w = s.cfg.MaxWindow
	}
	if w < 1 {
		w = 1
	}
	return int(w)
}

// outstanding returns the number of unacknowledged, un-SACKed segments
// presumed in flight.
func (s *Sender) outstanding() int {
	n := s.nextSeq - s.cumAck
	if s.nSacked > 0 {
		for seq := s.cumAck; seq < s.nextSeq; seq++ {
			if s.win.get(seq).sacked {
				n--
			}
		}
	}
	return n
}

// subPacketMode reports whether the sub-packet pacer governs sending:
// the variant is enabled and the window is in the fractional region.
func (s *Sender) subPacketMode() bool {
	return s.cfg.Variant == VariantSubPacket && s.cwnd < 2
}

// paceInterval returns the inter-segment gap at the current fractional
// window: RTT/cwnd.
func (s *Sender) paceInterval() sim.Time {
	rtt := s.srtt
	if rtt <= 0 {
		rtt = s.cfg.InitialRTO / 3
	}
	return sim.Time(float64(rtt) / s.cwnd)
}

// trySend transmits as many segments as window and app data allow. In
// sub-packet mode it instead releases at most one paced segment and
// arms the pacing timer for the next.
func (s *Sender) trySend() {
	if s.state != stateEstablished {
		return
	}
	for {
		// Skip segments the receiver already holds (SACK).
		for s.nSacked > 0 && s.win.get(s.nextSeq).sacked {
			s.nextSeq++
		}
		if s.app.Available(s.nextSeq) <= 0 {
			return
		}
		if s.subPacketMode() {
			if s.outstanding() >= 1 {
				return
			}
			now := s.run.Now()
			if now < s.nextPaced {
				if !armed(s.paceTimer) {
					s.paceTimer = s.run.Reschedule(s.paceTimer, s.nextPaced-now, s.paceFn)
				}
				return
			}
			s.nextPaced = now + s.paceInterval()
		} else if s.outstanding() >= s.window() {
			return
		}
		s.sendSegment(s.nextSeq)
		s.nextSeq++
	}
}

// onPace fires when the pacing gap has elapsed.
func (s *Sender) onPace() {
	s.paceTimer = nil
	s.trySend()
}

// sendSegment transmits segment seq, marking it a retransmission if it
// was ever transmitted before.
func (s *Sender) sendSegment(seq int) {
	rexmit := seq < s.highTx
	if seq >= s.highTx {
		s.highTx = seq + 1
		s.Stats.NewSegmentsSent++
	} else {
		s.Stats.Retransmits++
	}
	s.Stats.SegmentsSent++
	info := s.win.slot(seq)
	info.sentAt, info.sent, info.rexmit = s.run.Now(), true, rexmit
	p := s.newPacket(packet.Data, s.cfg.MSS, rexmit)
	p.Seq = seq
	s.out(p)
	if !armed(s.rtoTimer) {
		s.armRTO()
	}
}

// effectiveRTO returns the backed-off, clamped timeout value.
func (s *Sender) effectiveRTO() sim.Time {
	t := s.rto * sim.Time(s.backoff)
	if t > s.cfg.MaxRTO {
		t = s.cfg.MaxRTO
	}
	return t
}

func (s *Sender) armRTO() {
	// Reschedule reuses the timer allocation across the cancel-then-rearm
	// churn every ack causes; s.rtoTimer is the only handle.
	s.rtoTimer = s.run.Reschedule(s.rtoTimer, s.effectiveRTO(), s.rtoFn)
}

func (s *Sender) onAck(p *packet.Packet) {
	if s.state != stateEstablished {
		return
	}
	if s.cfg.SACK {
		for _, seq := range p.Sacked {
			// A block for a segment never transmitted would make
			// trySend skip it for good; [cumAck, highTx) is also all
			// the ring covers.
			if seq < s.cumAck || seq >= s.highTx {
				continue
			}
			if info := s.win.slot(seq); !info.sacked {
				info.sacked = true
				s.nSacked++
			}
		}
	}
	switch {
	case p.CumAck > s.cumAck:
		s.onNewAck(p.CumAck)
	case p.CumAck == s.cumAck && s.outstanding() > 0:
		s.onDupAck()
	}
}

func (s *Sender) onNewAck(newCum int) {
	newly := newCum - s.cumAck
	// Karn's rule + backoff collapse (§3.1.1): only segments never
	// retransmitted yield RTT samples and reset the backoff.
	sampled := false
	var sample sim.Time
	for seq := s.cumAck; seq < newCum; seq++ {
		info := s.win.get(seq)
		if info.sent && !info.rexmit {
			sample = s.run.Now() - info.sentAt
			sampled = true
		}
		if info.sacked {
			s.nSacked--
		}
	}
	s.win.advance(newCum)
	if sampled {
		s.rttSample(sample)
		s.backoff = 1
	}
	s.cumAck = newCum
	if s.nextSeq < newCum {
		s.nextSeq = newCum
	}

	if s.inRecovery {
		if newCum >= s.recover {
			// Full acknowledgment: leave recovery, deflate.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupAcks = 0
		} else {
			// Partial ack (RFC 6582): retransmit the next hole,
			// deflate by the amount acked, add back one segment.
			s.cwnd -= float64(newly)
			s.cwnd++
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.retransmitHole()
			// The "Impatient" variant: reset the retransmit timer
			// only for the first partial ack, so a recovery spanning
			// many losses runs into the RTO — the paper's model
			// assumption that TCP cannot recover beyond a threshold
			// of losses in one window (§3.1, citing Sheu & Wu).
			if !s.partialSeen {
				s.partialSeen = true
				s.armRTO()
			}
		}
	} else {
		s.dupAcks = 0
		switch {
		case s.subPacketMode():
			// Gentle multiplicative probe out of the fractional
			// region: at one paced packet per RTT/cwnd, ×1.5 per ack
			// grows the rate ~1.5× per effective round trip.
			s.cwnd *= 1.5
		case s.cwnd < s.ssthresh:
			s.cwnd += float64(newly) // slow start
		case s.cfg.Variant == VariantCubic:
			s.cwnd = s.cubic.grow(s.cwnd, newly, s.run.Now(), s.srtt)
		default:
			s.cwnd += float64(newly) / s.cwnd // AIMD congestion avoidance
		}
		if s.cwnd > s.cfg.MaxWindow {
			s.cwnd = s.cfg.MaxWindow
		}
	}

	s.app.Acked(s.cumAck)
	switch {
	case s.outstanding() <= 0:
		// Keep the canceled handle: the next send's armRTO re-arms
		// this struct in place instead of allocating a fresh one.
		s.rtoTimer.Cancel()
	case !s.inRecovery:
		s.armRTO()
	}
	s.trySend()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	switch {
	case !s.inRecovery && s.dupAcks == 3:
		// Fast retransmit. Note that with cwnd < 4 fewer than three
		// dupacks can ever arrive, so small-window flows fall back to
		// timeouts exactly as the paper's model assumes.
		s.ssthresh = s.reducedWindow()
		s.recover = s.highTx
		s.inRecovery = true
		s.rexmitNext = s.cumAck
		s.partialSeen = false
		s.cwnd = s.ssthresh + 3
		s.Stats.FastRetransmits++
		s.retransmitHole()
		s.armRTO()
		// RFC 6582: the inflated window (ssthresh + 3) may already
		// permit new data; without this send opportunity a small
		// window that produces exactly three dupacks stalls a full
		// RTT waiting for the recovery ack.
		s.trySend()
	case s.inRecovery:
		s.cwnd++ // window inflation per arriving dupack
		if s.cfg.SACK {
			// SACK-based recovery may retransmit further holes as
			// the pipe drains.
			if s.outstanding() < s.window() {
				s.retransmitHole()
			}
		}
		s.trySend()
	}
}

// retransmitHole resends the first unacknowledged, un-SACKed segment
// that has not already been retransmitted in the current recovery, and
// advances the retransmit pointer past it.
func (s *Sender) retransmitHole() {
	seq := s.cumAck
	if seq < s.rexmitNext {
		seq = s.rexmitNext
	}
	for seq < s.highTx && s.win.get(seq).sacked {
		seq++
	}
	if seq >= s.highTx {
		return
	}
	s.sendSegment(seq)
	s.rexmitNext = seq + 1
}

func (s *Sender) onRTO() {
	if s.state != stateEstablished {
		return
	}
	if s.outstanding() <= 0 {
		s.rtoTimer = nil
		return
	}
	s.Stats.Timeouts++
	if s.cfg.Variant == VariantSubPacket {
		// Future-work mode (§7): no exponential backoff — the loss
		// halves the (possibly fractional) window, so the pacing
		// interval doubles instead of the flow going silent.
		s.ssthresh = 2
		s.cwnd /= 2
		if s.cwnd < MinFracCwnd {
			s.cwnd = MinFracCwnd
		}
	} else {
		if s.backoff > 1 {
			s.Stats.RepetitiveTimeouts++
		}
		s.backoff *= 2
		if s.backoff > 64 {
			s.backoff = 64
		}
		if s.backoff > s.Stats.MaxBackoff {
			s.Stats.MaxBackoff = s.backoff
		}
		s.ssthresh = s.reducedWindow()
		s.cwnd = 1
	}
	s.inRecovery = false
	s.dupAcks = 0
	// Go-back-N: rewind the send pointer so unacked segments are
	// retransmitted (the receiver's out-of-order cache advances the
	// cumulative ack past anything it already holds).
	s.rexmitNext = s.cumAck
	s.retransmitHole()
	s.nextSeq = s.rexmitNext
	s.armRTO()
}

// reducedWindow returns the post-loss window target: half for
// Reno-family, β·cwnd for CUBIC (which also records the loss epoch).
// Never below 2 — "the sender never reaches a cwnd smaller than 2
// through fast retransmissions" (§3.1).
func (s *Sender) reducedWindow() float64 {
	w := s.cwnd / 2
	if s.cfg.Variant == VariantCubic {
		s.cubic.onLoss(s.cwnd, s.run.Now())
		w = s.cwnd * cubicBeta
	}
	if w < 2 {
		w = 2
	}
	return w
}

// rttSample folds a new RTT measurement into srtt/rttvar (RFC 6298).
func (s *Sender) rttSample(r sim.Time) {
	if r < 0 {
		return
	}
	if s.cfg.FixedRTO > 0 {
		s.srtt = r
		s.haveSRTT = true
		s.rto = s.cfg.FixedRTO
		return
	}
	if !s.haveSRTT {
		s.srtt = r
		s.rttvar = r / 2
		s.haveSRTT = true
	} else {
		d := s.srtt - r
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
}
