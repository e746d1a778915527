package emu

import (
	"taq/internal/core"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// ShardBankConfig describes a bank of TAQ shards for the real-time
// path (ROADMAP item 1: per-shard dispatch off the engine lock).
type ShardBankConfig struct {
	// Shards is the shard count (< 1 → 1). Typically GOMAXPROCS: one
	// engine lock domain per core.
	Shards int
	Seed   int64
	// Speedup scales virtual against wall time, per Engine.
	Speedup float64
	// Core is the per-shard middlebox configuration.
	Core core.Config
	// Metrics gives each shard its own obs registry (the same TAQ
	// schema in every one), merged at the read edge by MergedSnapshot.
	Metrics bool
}

// BankShard is one shard's slice of the bank: its engine (= its lock
// domain and timer space), its TAQ, and optionally its own registry.
type BankShard struct {
	Engine   *Engine
	TAQ      *core.TAQ
	Registry *obs.Registry
}

// ShardBank runs an N-shard TAQ middlebox with one wall-clock Engine
// per shard, so the shards' packet paths never contend on a common
// engine lock — the sharded analogue of Testbed. The only state the
// shards share is the core Aggregator (loss window + admission),
// reached through its //taq:crossshard seams; everything else is
// //taq:shardowned and confined to its shard's engine.
//
// Drivers address shards explicitly: route a flow's packets to shard
// ShardFor(flow) via Post (or timers scheduled on that shard's
// engine). Feeding a flow to the wrong shard would split its state
// across trackers — core.ShardOf is the single ownership function.
type ShardBank struct {
	cfg    ShardBankConfig
	disc   *core.Sharded
	shards []BankShard
}

// NewShardBank builds and starts the bank: every shard's periodic scan
// is armed on its own engine.
func NewShardBank(cfg ShardBankConfig) *ShardBank {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	b := &ShardBank{cfg: cfg, shards: make([]BankShard, cfg.Shards)}
	runs := make([]sim.Runner, cfg.Shards)
	for i := range runs {
		// Distinct seeds: shard engines must not share an rng stream
		// (they don't share a lock to guard it).
		runs[i] = NewEngine(cfg.Seed+int64(i), cfg.Speedup)
	}
	b.disc = core.NewShardedOn(runs, cfg.Core)
	for i := range b.shards {
		sh := b.disc.Shard(i)
		eng := runs[i].(*Engine)
		b.shards[i] = BankShard{Engine: eng, TAQ: sh}
		if cfg.Metrics {
			reg := obs.NewRegistry()
			b.shards[i].Registry = reg
			sh.SetMetrics(core.NewMetrics(reg))
		}
		eng.Post(sh.Start)
	}
	return b
}

// NumShards returns the shard count.
func (b *ShardBank) NumShards() int { return len(b.shards) }

// Shard returns shard i.
func (b *ShardBank) Shard(i int) BankShard { return b.shards[i] }

// ShardFor returns the shard owning the flow.
func (b *ShardBank) ShardFor(f packet.FlowID) int {
	return core.ShardOf(f, len(b.shards))
}

// Post runs fn serialized with shard i's callbacks.
func (b *ShardBank) Post(i int, fn func()) { b.shards[i].Engine.Post(fn) }

// MergedSnapshot merges the per-shard registries into one metrics view
// (empty when the bank was built without Metrics), read with every
// shard's engine lock held.
func (b *ShardBank) MergedSnapshot() (s *obs.MetricsSnapshot) {
	regs := make([]*obs.Registry, len(b.shards))
	for i := range b.shards {
		regs[i] = b.shards[i].Registry
	}
	b.locked(0, func() { s = obs.MergedSnapshot(regs...) })
	return s
}

// Stats returns the middlebox's counter view (core.Sharded.Stats), read
// with every shard's engine lock held.
func (b *ShardBank) Stats() (stats core.Stats) {
	b.locked(0, func() { stats = b.disc.Stats() })
	return stats
}

// locked runs fn holding the engine locks of shards i and up, taken in
// shard order.
func (b *ShardBank) locked(i int, fn func()) {
	if i == len(b.shards) {
		fn()
		return
	}
	b.shards[i].Engine.Post(func() { b.locked(i+1, fn) })
}

// Stop cancels every shard's scan and stops every engine, disarming
// all outstanding wall timers (soaks must not leak runtime timers).
func (b *ShardBank) Stop() {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.Engine.Post(sh.TAQ.Stop)
		sh.Engine.Stop()
	}
}
