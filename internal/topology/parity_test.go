// An external test package: emu imports topology, so the wall-clock row
// cannot be built from inside it.
package topology_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
)

// TestNewOnEmuParity is the regression test for drift between the
// simulator and the prototype: one scenario — 8 pooled bulk flows and a
// short transfer behind TAQ on 400 Kbps, telemetry on — built by NewOn
// over a sim.Engine and over an emu.Engine, must give the same
// accounting and the same telemetry schema — the registry's counter,
// gauge and histogram families — on both.
func TestNewOnEmuParity(t *testing.T) {
	rows := []struct {
		name string
		// runner returns the row's runner, hold (runs fn with the
		// network held) and advance (lets virtual time pass until ready
		// holds, then stops the clock).
		runner func() (run sim.Runner, hold func(func()), advance func(ready func() bool))
	}{
		{"sim", func() (sim.Runner, func(func()), func(func() bool)) {
			e := sim.NewEngine(21)
			return e, func(fn func()) { fn() }, func(func() bool) { e.RunUntil(60 * sim.Second) }
		}},
		{"emu", func() (sim.Runner, func(func()), func(func() bool)) {
			e := emu.NewEngine(21, 200)
			return e, e.Post, func(ready func() bool) {
				defer e.Stop()
				for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
					ok := false
					e.Post(func() { ok = ready() })
					if ok {
						return
					}
					e.RunFor(5 * sim.Second)
				}
			}
		}},
	}
	var schemas [][]string
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run, hold, advance := row.runner()
			var net *topology.Network
			hold(func() {
				var err error
				net, err = topology.NewOn(run, topology.Config{Bandwidth: 400 * link.Kbps, Queue: topology.TAQ})
				if err != nil {
					t.Fatal(err)
				}
				net.EnableMetrics()
				for i := 0; i < 8; i++ {
					net.AddFlow(packet.PoolID(1+i/2), tcp.BulkApp{}, run.Now())
				}
				app := &tcp.SizedApp{Total: 4}
				f := net.AddFlow(packet.PoolNone, app, run.Now())
				app.OnComplete = func() { net.ObserveFCT(f.Started, 4*net.Cfg.TCP.MSS) }
			})
			if (net.Engine != nil) != (row.name == "sim") {
				t.Errorf("Network.Engine = %v on the %s runner", net.Engine, row.name)
			}
			advance(func() bool { return net.FCT.Count() > 0 && net.QueueDrops > 0 })
			hold(func() {
				queued := uint64(net.Link.Discipline().Len())
				out := net.Link.SentPackets + net.QueueDrops + queued
				// The one packet the link may be serializing is in none
				// of the three.
				if in := net.QueueArrivals; in < out || in-out > 1 {
					t.Errorf("arrivals %d != delivered %d + drops %d + queued %d (+ ≤1 in flight)",
						in, net.Link.SentPackets, net.QueueDrops, queued)
				}
				if net.QueueDrops == 0 {
					t.Error("8 flows on 400 Kbps dropped nothing")
				}
				stats := net.Middlebox.Stats()
				if stats.Arrivals != net.QueueArrivals || stats.Drops != net.QueueDrops || stats.Served == 0 {
					t.Errorf("Middlebox.Stats() = %+v, network counted %d arrivals, %d drops",
						stats, net.QueueArrivals, net.QueueDrops)
				}
				net.Hangs.Finish(run.Now())
				if got := net.Hangs.NumPools(); got != 4 {
					t.Errorf("Hangs tracked %d pools, want 4", got)
				}
				if net.FCT.Count() == 0 {
					t.Error("FCT histogram empty after a completed transfer")
				}
				snap := net.Metrics.Snapshot()
				var families []string
				for _, c := range snap.Counters {
					families = append(families, "counter "+c.Name)
				}
				for _, g := range snap.Gauges {
					families = append(families, "gauge "+g.Name)
				}
				for _, h := range snap.Histograms {
					families = append(families, "histogram "+h.Name)
				}
				schemas = append(schemas, families)
			})
		})
	}
	if len(schemas) == 2 && !reflect.DeepEqual(schemas[0], schemas[1]) {
		t.Errorf("telemetry schema differs:\n sim %v\n emu %v", schemas[0], schemas[1])
	}
	if len(schemas) > 0 && !slices.Contains(schemas[0], "gauge taq_class_queue_packets") {
		t.Errorf("telemetry schema has no class queue gauges: %v", schemas[0])
	}
}
