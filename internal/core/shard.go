package core

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
)

// ShardOf maps a flow to its owning shard among n: a Fibonacci hash of
// the flow id reduced mod n. The multiplicative mix keeps structured
// id spaces (sequential ids, per-host strides) spread evenly; the same
// function is exported so drivers that partition work per shard (the
// emu shard bank, the shard-scaling experiment) agree with the
// middlebox about ownership.
func ShardOf(f packet.FlowID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint32(f) * 0x9E3779B9 % uint32(n))
}

// Sharded is the TAQ middlebox: flows hash-partitioned over N shards
// (DESIGN.md §12). Each shard is a complete TAQ — its own tracker, flow
// store, class queues, and scheduler accounting, all //taq:shardowned —
// and the shards share exactly one thing: the Aggregator's loss window
// and admission controller, reached only through //taq:crossshard
// seams.
//
// Sharded implements queue.Discipline, so it fronts a bottleneck link
// like any baseline discipline (the sim path drives all shards from one
// engine and stays deterministic; the emu shard bank gives each shard
// its own engine and lock domain). With n=1 every method delegates
// straight to the single shard.
type Sharded struct {
	shards []*TAQ
	agg    *Aggregator
	rr     int
}

// NewSharded builds an n-shard middlebox with every shard driven by
// the same runner — the simulation form. n < 1 is treated as 1.
func NewSharded(run sim.Runner, cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	runs := make([]sim.Runner, n)
	for i := range runs {
		runs[i] = run
	}
	return NewShardedOn(runs, cfg)
}

// NewShardedOn builds one shard per runner — the emu form, where each
// shard lives on its own engine (its own lock domain and timers). The
// aggregator's window opens at the first runner's clock.
func NewShardedOn(runs []sim.Runner, cfg Config) *Sharded {
	agg := newAggregator(runs[0].Now())
	s := &Sharded{
		shards: make([]*TAQ, len(runs)),
		agg:    agg,
	}
	for i, run := range runs {
		s.shards[i] = newShard(run, cfg, agg)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i, for drivers that address shards directly
// (each emu shard goroutine feeds exactly its own shard).
func (s *Sharded) Shard(i int) *TAQ { return s.shards[i] }

// owner returns the shard that owns the flow.
func (s *Sharded) owner(f packet.FlowID) *TAQ { return s.shards[ShardOf(f, len(s.shards))] }

// Start starts every shard's periodic scan.
func (s *Sharded) Start() {
	for _, sh := range s.shards {
		sh.Start()
	}
}

// Stop cancels every shard's periodic scan.
func (s *Sharded) Stop() {
	for _, sh := range s.shards {
		sh.Stop()
	}
}

// Enqueue implements queue.Discipline: the packet goes to the shard
// that owns its flow.
//
//taq:hotpath per-packet entry point of every TAQ deployment: shard dispatch
func (s *Sharded) Enqueue(p *packet.Packet) {
	s.owner(p.Flow).Enqueue(p)
}

// Dequeue implements queue.Discipline: shards are served round-robin,
// each running its own 3-level hierarchical scheduler internally. With
// one shard this is exactly that shard's scheduler.
//
//taq:hotpath per-packet exit point of every TAQ deployment: round-robin over shards
func (s *Sharded) Dequeue() *packet.Packet {
	n := len(s.shards)
	for i := 0; i < n; i++ {
		sh := s.shards[(s.rr+i)%n]
		if p := sh.Dequeue(); p != nil {
			s.rr = (s.rr + i + 1) % n
			return p
		}
	}
	return nil
}

// Len implements queue.Discipline: total packets across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Bytes implements queue.Discipline: total bytes across shards.
func (s *Sharded) Bytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Bytes()
	}
	return n
}

// AddDropHook implements queue.Discipline on every shard.
func (s *Sharded) AddDropHook(fn func(*packet.Packet)) {
	for _, sh := range s.shards {
		sh.AddDropHook(fn)
	}
}

// ObserveReverse routes an ack-path packet to the shard owning its
// flow (§3.3 two-way deployments).
//
//taq:hotpath runs per ACK in two-way deployments (§3.3): shard dispatch
func (s *Sharded) ObserveReverse(p *packet.Packet) {
	s.owner(p.Flow).ObserveReverse(p)
}

// SetRecorder installs one trace recorder on every shard; each shard
// records the admission rulings on its own SYNs. Only safe when all
// shards run on one engine — the sim path; per-engine emu shards must
// keep recorders per shard (TAQ.SetRecorder, inside that shard's Post).
func (s *Sharded) SetRecorder(rec *obs.Recorder) {
	for _, sh := range s.shards {
		sh.SetRecorder(rec)
	}
}

// SetMetrics installs one bundle on every shard, its counter families
// reading Stats, the sum over shards. Like SetRecorder it is for shards
// on one engine; the emu shard bank instead gives each shard its own
// registry (TAQ.SetMetrics) and merges snapshots at the edge.
func (s *Sharded) SetMetrics(mx *Metrics) {
	for _, sh := range s.shards {
		sh.mx = mx
	}
	if mx != nil {
		mx.stats = s.Stats
	}
}

// Stats is the middlebox's counter view: the per-shard counters summed.
func (s *Sharded) Stats() Stats {
	var sum Stats
	for _, sh := range s.shards {
		sum.Add(&sh.Stats)
	}
	return sum
}

// FlowStateOf reports the tracked state of a flow, read from the shard
// that owns it.
func (s *Sharded) FlowStateOf(id packet.FlowID) (FlowState, bool) {
	return s.owner(id).FlowStateOf(id)
}

// FlowEpoch reports a flow's current epoch (RTT) estimate, read from
// the shard that owns it.
func (s *Sharded) FlowEpoch(id packet.FlowID) (sim.Time, bool) {
	return s.owner(id).FlowEpoch(id)
}

// ActiveFlows sums the shards' active flow counts.
func (s *Sharded) ActiveFlows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ActiveFlows()
	}
	return n
}

// RecoveringFlows sums the shards' recovering flow counts.
func (s *Sharded) RecoveringFlows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.RecoveringFlows()
	}
	return n
}

// StateCensus sums the shards' per-state flow censuses.
func (s *Sharded) StateCensus() Census {
	var c Census
	for _, sh := range s.shards {
		sc := sh.StateCensus()
		for i := range c {
			c[i] += sc[i]
		}
	}
	return c
}

// QueueLen sums one class's queue length across shards.
func (s *Sharded) QueueLen(c Class) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.QueueLen(c)
	}
	return n
}

// LossRate reads the shared loss window (identical on every shard).
func (s *Sharded) LossRate() float64 { return s.agg.lossRate() }

// LossEWMA reads the shared smoothed loss rate.
func (s *Sharded) LossEWMA() float64 { return s.agg.lossEWMAValue() }

// WaitingPools reads the shared admission queue length.
func (s *Sharded) WaitingPools() int { return s.agg.waitingPools() }

var _ queue.Discipline = (*Sharded)(nil)
