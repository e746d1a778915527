package topology

import (
	"bytes"
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// TestShardedDeterministicTrace: on the sim path all shards run on one
// engine, so a multi-shard middlebox must stay fully deterministic —
// two same-seed runs produce byte-identical event and gauge streams.
func TestShardedDeterministicTrace(t *testing.T) {
	ev1, g1 := runTracedShards(t, 7, 4)
	ev2, g2 := runTracedShards(t, 7, 4)
	if !bytes.Equal(ev1, ev2) {
		t.Errorf("4-shard event streams diverged: %d vs %d bytes", len(ev1), len(ev2))
	}
	if !bytes.Equal(g1, g2) {
		t.Errorf("4-shard gauge series diverged")
	}
	if len(ev1) == 0 {
		t.Fatal("4-shard run produced no events")
	}
}

// TestShardedAggregateAccounting runs a 4-shard dumbbell and checks
// the cross-shard reductions: every packet offered to the bottleneck
// is an arrival on exactly one shard, and the aggregate gauges see all
// flows.
func TestShardedAggregateAccounting(t *testing.T) {
	n := MustNew(Config{Seed: 11, Queue: TAQ, TAQShards: 4})
	const flows = 8
	for i := 0; i < flows; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	n.Run(40 * sim.Second)

	mb := n.Middlebox
	if mb.NumShards() != 4 {
		t.Fatalf("TAQShards=4 built %d shards", mb.NumShards())
	}
	stats := mb.Stats()
	if stats.Arrivals != n.QueueArrivals {
		t.Errorf("summed shard arrivals = %d, queue offered %d", stats.Arrivals, n.QueueArrivals)
	}
	if stats.Drops != n.QueueDrops {
		t.Errorf("summed shard drops = %d, drop hook counted %d", stats.Drops, n.QueueDrops)
	}
	if got := mb.ActiveFlows(); got == 0 || got > flows {
		t.Errorf("aggregate active flows = %d, want in (0,%d]", got, flows)
	}
	// The flows must actually be spread: with 8 bulk flows and the
	// Fibonacci shard hash, more than one shard sees traffic.
	busy := 0
	for i := 0; i < mb.NumShards(); i++ {
		if mb.Shard(i).Stats.Arrivals > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of 4 shards saw traffic; flows are not partitioned", busy)
	}
}
