// Package tcp implements a packet-granularity TCP sender and receiver
// for the simulator: slow start, congestion avoidance, fast
// retransmit/fast recovery (NewReno, RFC 6582), optional SACK-based
// recovery, RFC 6298 retransmission timers with exponential backoff,
// and a SYN handshake with retry — everything the paper's small-packet-
// regime phenomena depend on (repetitive timeouts, silence periods,
// backoff collapse on new RTT measurements). The receiver acknowledges
// every data segment the moment it arrives, as the paper's receivers do
// (§2.3), so it owns no timer.
//
// Sequence numbers count MSS-sized segments, not bytes; the paper's
// analysis is entirely at packet granularity (500-byte packets, §2.3).
package tcp

import "taq/internal/sim"

// Variant selects the congestion-avoidance algorithm.
type Variant uint8

const (
	// VariantNewReno is AIMD with NewReno recovery (the default; the
	// paper's simulations are Reno-family).
	VariantNewReno Variant = iota
	// VariantCubic grows the window along the CUBIC curve (RFC 8312,
	// simplified). §2.1 notes modern stacks run CUBIC with an initial
	// window of 10, which defines the interesting SPK(k) range.
	VariantCubic
	// VariantSubPacket is this repository's implementation of the
	// paper's future work (§7: "end-host congestion control
	// mechanisms for small packet regimes"): when the window falls to
	// the sub-packet region the sender keeps a fractional congestion
	// window (down to MinFracCwnd) and paces one segment per
	// RTT/cwnd, and losses halve the fractional window instead of
	// doubling an RTO backoff — the flow slows smoothly to its
	// sub-packet fair share rather than going silent. Above the
	// sub-packet region it behaves like NewReno.
	VariantSubPacket
)

// MinFracCwnd is the floor of the fractional window in
// VariantSubPacket: one packet per 10 RTTs.
const MinFracCwnd = 0.1

// Config carries TCP parameters. The zero value is not usable; call
// DefaultConfig and override.
type Config struct {
	// Variant selects the congestion-avoidance algorithm.
	Variant Variant
	// MSS is the on-the-wire size of a data packet in bytes.
	MSS int
	// AckSize and SynSize are wire sizes for control packets.
	AckSize, SynSize int
	// InitialCwnd is the congestion window after the handshake, in
	// segments. The paper's simulations are pre-IW10 (ns2 default 2);
	// §2.1 notes modern stacks use 10 — both are interesting regimes.
	InitialCwnd float64
	// MaxWindow caps the window (receiver window), in segments.
	MaxWindow float64
	// InitialSsthresh is the initial slow-start threshold in segments.
	InitialSsthresh float64
	// MinRTO and MaxRTO clamp the retransmission timeout (RFC 6298
	// recommends 1 s and 60 s; backoff is clamped to MaxRTO too).
	MinRTO, MaxRTO sim.Time
	// InitialRTO applies before the first RTT sample.
	InitialRTO sim.Time
	// SynTimeout is the initial SYN retransmission timeout; it doubles
	// on each retry.
	SynTimeout sim.Time
	// MaxSynRetries bounds SYN retries; <0 retries forever (used by
	// the admission-control experiments where clients retry until
	// admitted).
	MaxSynRetries int
	// MaxSynTimeout caps the exponential SYN retry backoff when
	// positive. §4.3's clients "constantly retry till admission", so
	// the admission experiments cap the retry gap at a few seconds —
	// a waiting pool must present a SYN near its Twait deadline.
	MaxSynTimeout sim.Time
	// SACK enables SACK-style loss recovery; otherwise NewReno.
	SACK bool
	// FixedRTO, when positive, pins the base retransmission timeout
	// to a constant instead of the RFC 6298 estimator (backoff still
	// applies). The Markov-model validation uses it to match the
	// model's T0 = 2×RTT assumption (§3.1.1).
	FixedRTO sim.Time
}

// DefaultConfig returns the configuration used throughout the paper's
// simulations: 500-byte packets, initial window 2, 1 s min RTO.
func DefaultConfig() Config {
	return Config{
		MSS:             500,
		AckSize:         40,
		SynSize:         40,
		InitialCwnd:     2,
		MaxWindow:       64,
		InitialSsthresh: 64,
		MinRTO:          1 * sim.Second,
		MaxRTO:          64 * sim.Second,
		InitialRTO:      3 * sim.Second,
		SynTimeout:      3 * sim.Second,
		MaxSynRetries:   6,
	}
}

// Stats counts sender-side events of interest to the experiments.
type Stats struct {
	SegmentsSent       uint64 // data packets put on the wire (incl. rtx)
	NewSegmentsSent    uint64 // first transmissions only
	Retransmits        uint64 // fast/partial/RTO retransmissions
	FastRetransmits    uint64 // recoveries entered via 3 dupacks
	Timeouts           uint64 // RTO firings (established state)
	RepetitiveTimeouts uint64 // RTO firings with backoff already > 1
	SynRetries         uint64
	MaxBackoff         int // largest backoff multiplier reached
}
