// Package core implements Timeout Aware Queuing (TAQ), the paper's
// contribution: an in-network middlebox queue discipline that tracks
// the approximate TCP state of every flow (§3.3, Fig 7), classifies
// packets into five queues — Recovery, NewFlow, OverPenalized,
// BelowFairShare, AboveFairShare — served by a three-level hierarchical
// scheduler (§4.2), chooses drop victims to minimize timeouts and
// repetitive timeouts (§4.1), and optionally performs flow-pool
// admission control when the loss rate crosses the model's tipping
// point (§4.3).
//
// The middlebox is a Sharded — NewSharded, or NewShardedOn with one
// runner per shard — and implements queue.Discipline, so it drops
// into the same bottleneck link used by DropTail/RED/SFQ. It is
// engine-agnostic: it runs identically under the discrete-event
// simulator and the real-time prototype engine (internal/emu).
package core

import (
	"taq/internal/link"
	"taq/internal/sim"
)

// FairnessModel selects how TAQ computes per-flow fair shares (§4.2:
// "TAQ can adopt either the standard fair-queuing based fairness model
// or can support the proportional fairness model using the RTT
// estimates of flows").
type FairnessModel uint8

const (
	// FairQueuing gives every active flow an equal share C/N (the
	// model the paper evaluates).
	FairQueuing FairnessModel = iota
	// Proportional weights each flow's share by the inverse of its
	// estimated RTT (epoch), mimicking TCP's natural bias.
	Proportional
)

// Config parameterizes a TAQ middlebox.
type Config struct {
	// Capacity is the total buffer across all queues, in packets.
	Capacity int
	// Rate is the output (bottleneck) link rate, used for fair-share
	// computation; §4.4: TAQ nodes are "constantly aware of the
	// available bandwidth on the underlying network".
	Rate link.Bps
	// MSS is the data packet wire size, for rate conversions.
	MSS int

	// RecoveryShare caps the fraction of transmissions served from
	// the Recovery queue (Level 1 is "capacity limited so recovery
	// packets cannot occupy more than a certain amount of network
	// resources").
	RecoveryShare float64
	// RecoveryCap bounds the Recovery queue length in packets.
	RecoveryCap int
	// NewFlowCap bounds the NewFlow queue length in packets ("we
	// explicitly limit the NewQueue capacity").
	NewFlowCap int
	// NewFlowEpochs is how many epochs a flow is considered new
	// (slow-start) for NewFlow queue classification.
	NewFlowEpochs int
	// NewFlowSegs also treats a slow-start flow as new while its
	// highest sequence is below this many segments — short web
	// objects ride the NewFlow queue end to end (§5.3).
	NewFlowSegs int
	// OverPenaltyDrops is the cumulative current+previous epoch drop
	// count that moves a flow to the OverPenalized queue (§4.2
	// Level 3: "more than 2 packet drops in an epoch").
	OverPenaltyDrops int

	// DefaultEpoch seeds per-flow epoch (RTT) estimates before any
	// observation.
	DefaultEpoch sim.Time
	// ScanInterval is the period of the silence-detection scan.
	ScanInterval sim.Time
	// FlowExpiry evicts flows silent this long.
	FlowExpiry sim.Time

	// AdmissionControl enables §4.3 flow-pool admission control.
	AdmissionControl bool
	// PThresh is the loss-rate tipping point beyond which admission
	// control engages (the model's p_thresh ≈ 0.1).
	PThresh float64
	// AdmitMargin shrinks the admission threshold below PThresh as a
	// congestion-avoidance strategy ("in practice, we use a threshold
	// slightly smaller than p_thresh").
	AdmitMargin float64
	// Twait guarantees a waiting flow pool admission after this long.
	Twait sim.Time
	// LossWindow is the loss-rate measurement window.
	LossWindow sim.Time

	// Fairness selects the fair-share model (default FairQueuing).
	Fairness FairnessModel
	// PoolFairShare computes fair shares across flow pools instead of
	// individual flows (§4.3: "TAQ can implement fair sharing across
	// flow pools ... to maintain fairness across applications. Once a
	// flow pool is identified, TAQ's queuing policy does not change
	// except the fair share calculation"). A pool's share is divided
	// among its active flows; pool-less flows count as singletons.
	PoolFairShare bool

	// Ablation switches (benchmarked by the ablation experiment; all
	// false in normal operation).

	// NoRecoveryPriority disables the Level-1 recovery queue:
	// retransmissions are classified like any other packet.
	NoRecoveryPriority bool
	// NoOccupancyDrops disables per-flow victim selection: overflow
	// drops the newest packet of the victim class regardless of which
	// flow it belongs to (plain tail drop within the class).
	NoOccupancyDrops bool
	// NoRecoveryProtection disables the OverPenalized classification
	// of flows in/after loss recovery.
	NoRecoveryProtection bool
}

// DefaultConfig returns a TAQ configuration for a bottleneck of the
// given rate and buffer capacity (packets). A capacity ≤ 0 defers the
// capacity-derived fields: ResolveConfig completes them (FillDerived)
// once the deployment knows the real buffer size.
func DefaultConfig(rate link.Bps, capacity int) Config {
	cfg := Config{
		Rate:             rate,
		MSS:              500,
		RecoveryShare:    0.6,
		NewFlowEpochs:    4,
		NewFlowSegs:      32,
		OverPenaltyDrops: 2,
		DefaultEpoch:     200 * sim.Millisecond,
		ScanInterval:     100 * sim.Millisecond,
		FlowExpiry:       60 * sim.Second,
		PThresh:          0.1,
		AdmitMargin:      0.2,
		Twait:            8 * sim.Second,
		LossWindow:       2 * sim.Second,
	}
	if capacity > 0 {
		cfg.FillDerived(capacity)
	}
	return cfg
}

// ResolveConfig returns the configuration a deployment (sim topology,
// emu testbed) runs for a bottleneck of the given rate and buffer in
// packets: DefaultConfig when override is nil, otherwise the override
// with a zero Rate and the zero capacity-derived fields completed.
func ResolveConfig(override *Config, rate link.Bps, buffer int) Config {
	if override == nil {
		return DefaultConfig(rate, buffer)
	}
	cfg := *override
	if cfg.Rate == 0 {
		cfg.Rate = rate
	}
	cfg.FillDerived(buffer)
	return cfg
}

// FillDerived completes the buffer-capacity-derived fields that are
// still zero, for the given total capacity in packets.
func (c *Config) FillDerived(capacity int) {
	if capacity < 4 {
		capacity = 4
	}
	if c.Capacity == 0 {
		c.Capacity = capacity
	}
	if c.RecoveryCap == 0 {
		c.RecoveryCap = maxInt(4, c.Capacity)
	}
	if c.NewFlowCap == 0 {
		c.NewFlowCap = maxInt(2, c.Capacity/4)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stats counts middlebox-level events for the experiments.
type Stats struct {
	Arrivals uint64
	Drops    uint64
	// PolicyDrops counts the subset of Drops that were TAQ's own
	// admission decisions (blocked SYNs, data of un-admitted pools)
	// rather than congestion; they are excluded from the loss window.
	PolicyDrops   uint64
	DropsByClass  [numClasses]uint64
	RtxDrops      uint64 // the subset of Drops that were retransmissions (§4.1)
	Served        uint64
	ServedByClass [numClasses]uint64
	SynsBlocked   uint64 // SYNs dropped by admission control
	PoolsAdmitted uint64
	PoolsForced   uint64 // the subset of PoolsAdmitted let in by the Twait guarantee
	PoolsWaited   uint64 // pools that had to wait before admission
	// Transitions counts tracker state entries by destination state.
	Transitions [numFlowStates]uint64
}

// Add accumulates o into s — the shard-merge used by Sharded.Stats and
// the emu shard bank.
func (s *Stats) Add(o *Stats) {
	s.Arrivals += o.Arrivals
	s.Drops += o.Drops
	s.PolicyDrops += o.PolicyDrops
	for i := range s.DropsByClass {
		s.DropsByClass[i] += o.DropsByClass[i]
	}
	s.RtxDrops += o.RtxDrops
	s.Served += o.Served
	for i := range s.ServedByClass {
		s.ServedByClass[i] += o.ServedByClass[i]
	}
	s.SynsBlocked += o.SynsBlocked
	s.PoolsAdmitted += o.PoolsAdmitted
	s.PoolsForced += o.PoolsForced
	s.PoolsWaited += o.PoolsWaited
	for i := range s.Transitions {
		s.Transitions[i] += o.Transitions[i]
	}
}
