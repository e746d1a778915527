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
// Config carries only the bottleneck's capacity and rate and what an
// experiment selects; the paper's tuning (p_thresh, Twait, the Level-1
// recovery share, the epoch and scan timings) is fixed as constants.
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

// Config holds what a deployment or an experiment chooses for a TAQ
// middlebox: the two inputs of the bottleneck it fronts (Capacity,
// Rate) and six selections — admission control, the fairness model,
// pool fair sharing and the three ablation switches. Everything else
// is the paper's own tuning and is fixed below as constants.
type Config struct {
	// Capacity is the total buffer across all queues, in packets.
	Capacity int
	// Rate is the output (bottleneck) link rate, used for fair-share
	// computation; §4.4: TAQ nodes are "constantly aware of the
	// available bandwidth on the underlying network".
	Rate link.Bps

	// AdmissionControl enables §4.3 flow-pool admission control.
	AdmissionControl bool
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

// TAQ's tuning, fixed as the paper fixes it.
const (
	// recoveryShare caps the fraction of transmissions served from
	// the Recovery queue (§4.2: Level 1 is "capacity limited so
	// recovery packets cannot occupy more than a certain amount of
	// network resources").
	recoveryShare = 0.6
	// newFlowEpochs is how many epochs a slow-start flow stays new
	// for NewFlow classification (§4.2).
	newFlowEpochs = 4
	// newFlowSegs also treats a slow-start flow as new while its
	// highest sequence is below this many segments, so short web
	// objects ride the NewFlow queue end to end (§5.3).
	newFlowSegs = 32
	// overPenaltyDrops is the current+previous epoch drop count that
	// moves a flow to the OverPenalized queue (§4.2 Level 3: "more
	// than 2 packet drops in an epoch").
	overPenaltyDrops = 2

	// defaultEpoch seeds a flow's epoch (RTT) estimate before any
	// observation (§3.3).
	defaultEpoch = 200 * sim.Millisecond
	// scanInterval is the period of the silence-detection scan
	// (§3.3).
	scanInterval = 100 * sim.Millisecond
	// flowExpiry evicts flows, and admitted pools, silent this long
	// (§3.3).
	flowExpiry = 60 * sim.Second

	// pThresh is the loss-rate tipping point beyond which admission
	// control engages (§3: the model's p_thresh ≈ 0.1).
	pThresh = 0.1
	// admitMargin shrinks the admission threshold below pThresh as
	// congestion avoidance (§4.3: "in practice, we use a threshold
	// slightly smaller than p_thresh").
	admitMargin = 0.2
	// twait guarantees a waiting flow pool admission after this long,
	// below the TCP SYN timeout so a retried SYN gets through (§4.3).
	twait = 8 * sim.Second
	// lossWindow is the loss-rate measurement window (§4.3).
	lossWindow = 2 * sim.Second
)

// DefaultConfig returns a TAQ configuration for a bottleneck of the
// given rate and buffer capacity (packets), floored at 4. A capacity
// ≤ 0 defers it: ResolveConfig fills it once the deployment knows the
// real buffer size.
func DefaultConfig(rate link.Bps, capacity int) Config {
	cfg := Config{Rate: rate}
	if capacity > 0 {
		cfg.Capacity = max(4, capacity)
	}
	return cfg
}

// ResolveConfig returns the configuration a deployment (sim topology,
// emu testbed) runs for a bottleneck of the given rate and buffer in
// packets: DefaultConfig when override is nil, otherwise the override
// with a zero Rate taken from the link and a zero Capacity from the
// buffer, floored at 4.
func ResolveConfig(override *Config, rate link.Bps, buffer int) Config {
	if override == nil {
		return DefaultConfig(rate, buffer)
	}
	cfg := *override
	if cfg.Rate == 0 {
		cfg.Rate = rate
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = max(4, buffer)
	}
	return cfg
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
