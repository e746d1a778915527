package topology

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"taq/internal/core"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// runTraced runs a small TAQ dumbbell with tracing and gauges enabled
// and returns the raw JSONL event stream and CSV gauge series.
func runTraced(t *testing.T, seed int64) (events, gauges []byte) {
	t.Helper()
	return runTracedShards(t, seed, 0)
}

// runTracedShards is runTraced with the middlebox built with the given
// shard count (0 = the default, one shard).
func runTracedShards(t *testing.T, seed int64, shards int) (events, gauges []byte) {
	t.Helper()
	n := MustNew(Config{
		Seed:              seed,
		Queue:             TAQ,
		TwoWayObservation: true,
		TAQShards:         shards,
	})

	var evBuf bytes.Buffer
	sink := obs.NewJSONLSink(&evBuf)
	sink.ClassName = func(c int8) string { return core.Class(c).String() }
	sink.StateName = func(s int8) string { return core.FlowState(s).String() }
	rec := obs.NewRecorder(sink, 0)
	n.EnableObservability(rec)

	var gBuf bytes.Buffer
	g := n.EnableGauges(2*sim.Second, obs.NewCSVSeries(&gBuf))

	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	n.Run(40 * sim.Second)

	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if err := g.Stop(); err != nil {
		t.Fatalf("gauges stop: %v", err)
	}
	return evBuf.Bytes(), gBuf.Bytes()
}

// TestObservabilityDeterministicTrace is the tracing determinism gate:
// two same-seed runs must produce byte-identical JSONL event streams
// and gauge series. Any wall-clock or map-order leakage into the obs
// path diverges here.
func TestObservabilityDeterministicTrace(t *testing.T) {
	ev1, g1 := runTraced(t, 7)
	ev2, g2 := runTraced(t, 7)

	if !bytes.Equal(ev1, ev2) {
		t.Errorf("event streams diverged: %d vs %d bytes", len(ev1), len(ev2))
	}
	if !bytes.Equal(g1, g2) {
		t.Errorf("gauge series diverged:\n%s\nvs\n%s", g1, g2)
	}

	// The trace must actually cover the lifecycle: generic link events,
	// TAQ classification, and at least one drop with a victim class on
	// this deliberately tight scenario.
	trace := string(ev1)
	for _, want := range []string{`"ev":"enqueue"`, `"ev":"dequeue"`, `"ev":"class_change"`, `"ev":"drop"`, `"ev":"tracker_transition"`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	lines := strings.Count(trace, "\n")
	if lines < 100 {
		t.Errorf("suspiciously short trace: %d lines", lines)
	}

	gauge := string(g1)
	if !strings.HasPrefix(gauge, "t_ns,qlen,qbytes,arrivals,drops,utilization,") {
		t.Errorf("gauge header = %q", strings.SplitN(gauge, "\n", 2)[0])
	}
	if rows := strings.Count(gauge, "\n"); rows < 10 {
		t.Errorf("gauge series too short: %d rows", rows)
	}
}

// TestObservabilityIsPassive verifies tracing does not perturb the
// simulation: the same seed with and without the obs layer yields
// identical traffic counters. (Engine.Processed is excluded — gauge
// ticks are themselves events.)
func TestObservabilityIsPassive(t *testing.T) {
	run := func(withObs bool) (arrivals, drops uint64) {
		n := MustNew(Config{Seed: 11, Queue: TAQ, TwoWayObservation: true})
		if withObs {
			n.EnableObservability(obs.NewRecorder(&obs.NullSink{}, 0))
			n.EnableGauges(sim.Second, &obs.MemorySeries{})
		}
		for i := 0; i < 4; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
		}
		n.Run(30 * sim.Second)
		if withObs {
			n.Gauges.Stop()
		}
		return n.QueueArrivals, n.QueueDrops
	}

	aOn, dOn := run(true)
	aOff, dOff := run(false)
	if aOn != aOff || dOn != dOff {
		t.Errorf("obs perturbed the run: arrivals %d/%d drops %d/%d", aOn, aOff, dOn, dOff)
	}
}

// runMetered runs a small TAQ dumbbell with admission control and the
// metrics registry on — bulk, short and pooled flows, so every
// middlebox family has non-zero cells — and returns the final
// Prometheus exposition.
func runMetered(seed int64) []byte {
	mb := core.DefaultConfig(0, 0)
	mb.AdmissionControl = true
	mb.RecoveryCap = 4
	mb.Twait = 2 * sim.Second
	n := MustNew(Config{Seed: seed, Queue: TAQ, TwoWayObservation: true, TAQ: &mb})
	reg := n.EnableMetrics()
	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	for i := 0; i < 8; i++ {
		workloadShortFlow(n, packet.PoolNone, 3, sim.Time(10+i)*sim.Second)
	}
	for i := 0; i < 24; i++ {
		workloadShortFlow(n, packet.PoolID(1+i/3), 6, sim.Time(5+i)*sim.Second/2)
	}
	n.Run(40 * sim.Second)
	return reg.Snapshot().AppendText(nil)
}

// workloadShortFlow starts a sized transfer feeding the FCT histogram
// (a local stand-in for workload.AddShortFlow, which lives a package
// up and cannot be imported here).
func workloadShortFlow(n *Network, pool packet.PoolID, segments int, at sim.Time) {
	app := &tcp.SizedApp{Total: segments}
	f := n.AddFlow(pool, app, at)
	id, started := f.ID, f.Started
	app.OnComplete = func() {
		n.Slicer.Finish(id, n.Engine.Now())
		n.ObserveFCT(started, segments*n.Cfg.TCP.MSS)
	}
}

const metricsGoldenFile = "testdata/metrics-seed7.prom"

// TestMetricsExpositionGolden pins the seed-7 Prometheus exposition byte
// for byte, and gates snapshot determinism: same-seed runs must produce
// identical expositions. Re-pin with TAQ_UPDATE_GOLDEN=1 after an
// intentional behavior or schema change.
func TestMetricsExpositionGolden(t *testing.T) {
	text := runMetered(7)
	if again := runMetered(7); !bytes.Equal(text, again) {
		t.Fatalf("same-seed expositions diverged:\n%s\nvs\n%s", text, again)
	}
	if os.Getenv("TAQ_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(metricsGoldenFile, text, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", metricsGoldenFile)
		return
	}
	want, err := os.ReadFile(metricsGoldenFile)
	if err != nil {
		t.Fatalf("no golden exposition (%v); run with TAQ_UPDATE_GOLDEN=1 to create it", err)
	}
	if !bytes.Equal(text, want) {
		t.Errorf("exposition diverged from %s:\n%s", metricsGoldenFile, text)
	}
}

// TestMetricsArePassive verifies the registry does not perturb the
// simulation, mirroring TestObservabilityIsPassive.
func TestMetricsArePassive(t *testing.T) {
	run := func(withMetrics bool) (arrivals, drops uint64) {
		n := MustNew(Config{Seed: 11, Queue: TAQ, TwoWayObservation: true})
		if withMetrics {
			n.EnableMetrics()
		}
		for i := 0; i < 4; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
		}
		n.Run(30 * sim.Second)
		return n.QueueArrivals, n.QueueDrops
	}
	aOn, dOn := run(true)
	aOff, dOff := run(false)
	if aOn != aOff || dOn != dOff {
		t.Errorf("metrics perturbed the run: arrivals %d/%d drops %d/%d", aOn, aOff, dOn, dOff)
	}
}
