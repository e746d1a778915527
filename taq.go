// Package taq is the public API of the TAQ reproduction: Timeout Aware
// Queuing (Chen, Subramanian, Iyengar, Ford — EuroSys 2014), an
// in-network middlebox queuing discipline that tracks per-flow TCP
// state to minimize timeouts and repetitive timeouts in small packet
// regimes, together with the full evaluation substrate the paper used:
// a discrete-event network simulator with a packet-level TCP
// (NewReno/SACK), DropTail/RED/SFQ baselines, the idealized Markov
// models of §3.1, workload and trace generators, metrics, and a
// real-time prototype engine.
//
// Quick start — compare DropTail and TAQ on the paper's dumbbell:
//
//	net := taq.NewNetwork(taq.NetworkConfig{Bandwidth: 600 * taq.Kbps, Queue: taq.QueueTAQ})
//	taq.AddBulkFlows(net, 60, 50*taq.Millisecond)
//	net.Run(200 * taq.Second)
//	fmt.Println(net.Slicer.MeanSliceJFI(1, 10))
//
// The experiments package (taq/experiments) reproduces every figure of
// the paper's evaluation, one row of experiments.All each; cmd/taqbench
// runs the whole suite.
package taq

import (
	"taq/internal/core"
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/markov"
	"taq/internal/metrics"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/tfrc"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// Virtual time.
type (
	// Time is a virtual time instant or duration in nanoseconds.
	Time = sim.Time
	// Runner is the clock/scheduler abstraction shared by the
	// discrete-event engine and the real-time engine.
	Runner = sim.Runner
	// Engine is the deterministic discrete-event engine.
	Engine = sim.Engine
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// FromSeconds converts seconds to Time.
func FromSeconds(s float64) Time { return sim.FromSeconds(s) }

// NewEngine returns a discrete-event engine seeded for reproducibility.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// Link rates.
type (
	// Bps is a link rate in bits per second.
	Bps = link.Bps
)

// Common rates.
const (
	Kbps = link.Kbps
	Mbps = link.Mbps
)

// Identifiers.
type (
	// FlowID identifies a TCP flow.
	FlowID = packet.FlowID
	// PoolID identifies a flow pool (user session) for hang tracking
	// and admission control.
	PoolID = packet.PoolID
	// Packet is the simulated on-the-wire unit.
	Packet = packet.Packet
)

// PoolNone marks flows outside any pool.
const PoolNone = packet.PoolNone

// PacketKind discriminates packet roles on the wire.
type PacketKind = packet.Kind

// Packet kinds.
const (
	KindData     = packet.Data
	KindAck      = packet.Ack
	KindSyn      = packet.Syn
	KindSynAck   = packet.SynAck
	KindFin      = packet.Fin
	KindFeedback = packet.Feedback
)

// TCP endpoints.
type (
	// TCPConfig parameterizes senders and receivers.
	TCPConfig = tcp.Config
	// Sender is the TCP sender half of a flow.
	Sender = tcp.Sender
	// Receiver is the TCP receiver half of a flow.
	Receiver = tcp.Receiver
	// App supplies data to a sender.
	App = tcp.App
	// BulkApp is an unbounded data source.
	BulkApp = tcp.BulkApp
	// SizedApp transfers a fixed number of segments.
	SizedApp = tcp.SizedApp
	// ObjectApp pipelines multiple objects over one connection.
	ObjectApp = tcp.ObjectApp
)

// DefaultTCPConfig returns the paper's TCP parameters (500-byte
// packets, initial window 2, 1 s minimum RTO).
func DefaultTCPConfig() TCPConfig { return tcp.DefaultConfig() }

// TCPVariant selects the congestion-avoidance algorithm.
type TCPVariant = tcp.Variant

// TCP variants.
const (
	// VariantNewReno is AIMD with NewReno recovery (default).
	VariantNewReno = tcp.VariantNewReno
	// VariantCubic grows along the CUBIC curve with IW10-era defaults.
	VariantCubic = tcp.VariantCubic
	// VariantSubPacket is the §7 future-work sender: fractional paced
	// windows instead of exponential RTO backoff.
	VariantSubPacket = tcp.VariantSubPacket
)

// TFRC (RFC 5348) baseline endpoints — the equation-rate transport the
// paper's introduction rules out for sub-packet regimes.
type (
	// TFRCConfig parameterizes the TFRC endpoints.
	TFRCConfig = tfrc.Config
	// TFRCSender is a rate-paced TFRC data sender.
	TFRCSender = tfrc.Sender
	// TFRCReceiver measures loss events and reports once per RTT.
	TFRCReceiver = tfrc.Receiver
)

// DefaultTFRCConfig returns RFC-flavored TFRC defaults.
func DefaultTFRCConfig() TFRCConfig { return tfrc.DefaultConfig() }

// The TAQ middlebox (the paper's contribution).
type (
	// Middlebox is the Timeout Aware Queuing discipline; it
	// implements the same Discipline interface as the baselines and
	// can front any bottleneck link.
	Middlebox = core.Sharded
	// MiddleboxConfig parameterizes TAQ.
	MiddleboxConfig = core.Config
	// FlowState is the middlebox's approximate per-flow state (Fig 7).
	FlowState = core.FlowState
	// QueueClass identifies TAQ's five packet classes.
	QueueClass = core.Class
)

// Middlebox flow states (Fig 7).
const (
	StateNew             = core.StateNew
	StateSlowStart       = core.StateSlowStart
	StateNormal          = core.StateNormal
	StateLossRecovery    = core.StateLossRecovery
	StateTimeoutSilence  = core.StateTimeoutSilence
	StateTimeoutRecovery = core.StateTimeoutRecovery
	StateExtendedSilence = core.StateExtendedSilence
	StateIdleSilence     = core.StateIdleSilence
)

// DefaultMiddleboxConfig returns TAQ defaults for a bottleneck of the
// given rate and buffer capacity in packets.
func DefaultMiddleboxConfig(rate Bps, capacity int) MiddleboxConfig {
	return core.DefaultConfig(rate, capacity)
}

// NewMiddlebox constructs a one-shard TAQ middlebox on the given
// runner. Call Start on the result to activate its periodic scan.
func NewMiddlebox(run Runner, cfg MiddleboxConfig) *Middlebox {
	return core.NewSharded(run, cfg, 1)
}

// Scenario building.
type (
	// NetworkConfig describes a dumbbell scenario.
	NetworkConfig = topology.Config
	// Network is an instantiated scenario.
	Network = topology.Network
	// Flow bundles one connection's endpoints.
	Flow = topology.Flow
	// QueueKind selects the bottleneck discipline.
	QueueKind = topology.QueueKind
)

// Queue kinds.
const (
	QueueDropTail = topology.DropTail
	QueueRED      = topology.RED
	QueueSFQ      = topology.SFQ
	QueueTAQ      = topology.TAQ
)

// NewNetwork builds a dumbbell network (panics on invalid config; use
// topology.New via the internal package for error returns).
func NewNetwork(cfg NetworkConfig) *Network { return topology.MustNew(cfg) }

// Workloads.
type (
	// Session models a multi-connection web user.
	Session = workload.Session
	// ObjectResult records one object download.
	ObjectResult = workload.ObjectResult
	// ReplayMode selects trace replay scheduling.
	ReplayMode = workload.ReplayMode
	// TraceRecord is one access-log entry.
	TraceRecord = trace.Record
	// TraceGenConfig parameterizes the synthetic log generator.
	TraceGenConfig = trace.GenConfig
)

// Replay modes.
const (
	ReplayTimed = workload.ReplayTimed
	ReplayASAP  = workload.ReplayASAP
)

// AddBulkFlows adds n long-running flows with staggered starts.
func AddBulkFlows(net *Network, n int, stagger Time) []*Flow {
	return workload.AddBulkFlows(net, n, stagger)
}

// NewSession creates a web session with up to maxConns connections.
func NewSession(net *Network, client, maxConns int) *Session {
	return workload.NewSession(net, client, maxConns)
}

// Replay drives an access log through per-client sessions.
func Replay(net *Network, recs []TraceRecord, maxConns int, mode ReplayMode) map[int]*Session {
	return workload.Replay(net, recs, maxConns, mode)
}

// GenerateTrace produces a synthetic heavy-tailed access log.
func GenerateTrace(cfg TraceGenConfig) []TraceRecord { return trace.Generate(cfg) }

// DefaultTraceConfig matches the paper's proxy-log aggregates.
func DefaultTraceConfig() TraceGenConfig { return trace.DefaultGenConfig() }

// Metrics.
type (
	// CDF accumulates samples for percentile queries.
	CDF = metrics.CDF
	// Slicer computes time-sliced per-flow goodput and fairness.
	Slicer = metrics.Slicer
	// HangTracker measures user-perceived hangs.
	HangTracker = metrics.HangTracker
)

// JainIndex computes the Jain Fairness Index of the allocations.
func JainIndex(xs []float64) float64 { return metrics.JainIndex(xs) }

// Markov models (§3.1).
type (
	// MarkovChain is a labeled discrete-time chain.
	MarkovChain = markov.Chain
)

// PartialModel builds the Fig 4 chain for loss probability p.
func PartialModel(p float64, wmax int) (*MarkovChain, error) { return markov.PartialModel(p, wmax) }

// FullModel builds the Fig 5 chain with explicit backoff stages.
func FullModel(p float64, wmax, stages int) (*MarkovChain, error) {
	return markov.FullModel(p, wmax, stages)
}

// ExpectedIdleEpochs returns the closed-form 1/(1−2p) expected silent
// epochs in the aggregated timeout state.
func ExpectedIdleEpochs(p float64) float64 { return markov.ExpectedIdleEpochs(p) }

// TippingPoint returns the loss rate at which the stationary timeout
// mass reaches frac (the basis of TAQ's admission threshold).
func TippingPoint(frac float64, wmax int) (float64, error) { return markov.TippingPoint(frac, wmax) }

// Real-time prototype (the paper's testbed substrate).
type (
	// Testbed is a Network on a wall-clock engine: the same scenario,
	// TCP and TAQ code under real timers. Its Net field is the Network;
	// touch it only inside Snapshot.
	Testbed = emu.Testbed
	// TestbedConfig is a NetworkConfig plus the wall-clock speedup and
	// the live endpoint's address.
	TestbedConfig = emu.TestbedConfig
)

// NewTestbed builds a real-time scenario.
func NewTestbed(cfg TestbedConfig) *Testbed { return emu.NewTestbed(cfg) }
