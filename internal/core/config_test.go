package core

import (
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// TestResolveConfig pins how a deployment's configuration is completed:
// a zero Rate takes the link's rate, a zero Capacity takes the buffer
// floored at 4 packets, an explicit Capacity is kept, and the NewFlow
// queue cap the middlebox runs is max(2, Capacity/4), observed as the
// number of SYNs queued before the first NewFlow drop.
func TestResolveConfig(t *testing.T) {
	const rate = 600 * link.Kbps
	explicit := DefaultConfig(0, 0)
	explicit.Rate, explicit.Capacity = 2*rate, 40
	for _, c := range []struct {
		name     string
		cfg      Config
		rate     link.Bps
		capacity int
	}{
		{"DefaultConfig", DefaultConfig(rate, 100), rate, 100},
		{"DefaultConfig below 4", DefaultConfig(rate, 1), rate, 4},
		{"nil override", ResolveConfig(nil, rate, 100), rate, 100},
		{"zero Rate and Capacity", ResolveConfig(new(Config), rate, 60), rate, 60},
		{"zero Rate and Capacity, buffer below 4", ResolveConfig(new(Config), rate, 2), rate, 4},
		{"experiment override", func() Config {
			o := DefaultConfig(0, 0)
			o.AdmissionControl = true
			return ResolveConfig(&o, rate, 30)
		}(), rate, 30},
		{"explicit Rate and Capacity kept", ResolveConfig(&explicit, rate, 100), 2 * rate, 40},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.cfg.Rate != c.rate || c.cfg.Capacity != c.capacity {
				t.Fatalf("Rate, Capacity = %v, %d; want %v, %d", c.cfg.Rate, c.cfg.Capacity, c.rate, c.capacity)
			}
			q := newTestShard(sim.NewEngine(1), c.cfg)
			queued := 0
			for q.Stats.DropsByClass[ClassNewFlow] == 0 {
				q.Enqueue(synPkt(packet.FlowID(queued+1), packet.PoolNone))
				queued++
			}
			if got, want := queued-1, max(2, c.capacity/4); got != want {
				t.Errorf("NewFlow cap = %d SYNs, want max(2, %d/4) = %d", got, c.capacity, want)
			}
		})
	}
}
