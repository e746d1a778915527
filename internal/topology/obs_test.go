package topology

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"taq/internal/core"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// runTraced runs a small TAQ dumbbell with tracing and the time series
// enabled and returns the raw JSONL event stream and CSV series.
func runTraced(t *testing.T, seed int64) (events, gauges []byte) {
	t.Helper()
	return runTracedShards(t, seed, 0)
}

// runTracedShards is runTraced with the middlebox built with the given
// shard count (0 = the default, one shard).
func runTracedShards(t *testing.T, seed int64, shards int) (events, gauges []byte) {
	t.Helper()
	return runTracedConfig(t, Config{
		Seed:              seed,
		Queue:             TAQ,
		TwoWayObservation: true,
		TAQShards:         shards,
	})
}

// runTracedConfig runs four bulk flows for 40 s on cfg's dumbbell,
// sampling the series every 2 s.
func runTracedConfig(t *testing.T, cfg Config) (events, gauges []byte) {
	t.Helper()
	n := MustNew(cfg)

	var evBuf bytes.Buffer
	sink := obs.NewJSONLSink(&evBuf)
	sink.ClassName = func(c int8) string { return core.Class(c).String() }
	sink.StateName = func(s int8) string { return core.FlowState(s).String() }
	rec := obs.NewRecorder(sink, 0)
	n.EnableObservability(rec)

	var gBuf bytes.Buffer
	series := n.SampleSeries(2*sim.Second, &gBuf)

	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	n.Run(40 * sim.Second)

	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if err := series.Stop(); err != nil {
		t.Fatalf("series stop: %v", err)
	}
	return evBuf.Bytes(), gBuf.Bytes()
}

// TestGaugeSeriesGolden pins the CSV time series byte for byte against
// files written by the gauge mechanism the registry sampler replaced:
// the TAQ run's fourteen columns and a DropTail run's five must read
// the same cells at the same instants, in the same format.
func TestGaugeSeriesGolden(t *testing.T) {
	for _, c := range []struct {
		queue QueueKind
		file  string
	}{{TAQ, "testdata/gauges-taq-seed7.csv"}, {DropTail, "testdata/gauges-droptail-seed7.csv"}} {
		_, got := runTracedConfig(t, Config{Seed: 7, Queue: c.queue, TwoWayObservation: true})
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s series diverged from %s:\n%s", c.queue, c.file, got)
		}
	}
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
// identical traffic counters. (Engine.Processed is excluded — series
// ticks are themselves events.)
func TestObservabilityIsPassive(t *testing.T) {
	run := func(withObs bool) (arrivals, drops uint64) {
		n := MustNew(Config{Seed: 11, Queue: TAQ, TwoWayObservation: true})
		if withObs {
			n.EnableObservability(obs.NewRecorder(&obs.NullSink{}, 0))
			n.SampleSeries(sim.Second, io.Discard)
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
		t.Errorf("obs perturbed the run: arrivals %d/%d drops %d/%d", aOn, aOff, dOn, dOff)
	}
}

// runMetered runs a small TAQ dumbbell with admission control and the
// metrics registry on — bulk, short and pooled flows, so every
// middlebox family but the Recovery sheds has non-zero cells (at this
// load evict never reaches Recovery, DESIGN §5) — and returns the
// final Prometheus exposition.
func runMetered(seed int64) []byte {
	mb := core.DefaultConfig(0, 0)
	mb.AdmissionControl = true
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

// TestSmallBufferDropsReachExposition runs what the seed-7 golden no
// longer does: with a buffer of 8 under 20 bulk flows, TAQ sheds from
// Recovery and drops retransmissions. The exposition must report every
// class's drops and the retransmission drops exactly as Stats counts
// them, so a fault in how the registry exports either moves a number a
// test reads.
func TestSmallBufferDropsReachExposition(t *testing.T) {
	mb := core.DefaultConfig(0, 8)
	n := MustNew(Config{Seed: 1, Queue: TAQ, TAQ: &mb})
	reg := n.EnableMetrics()
	for i := 0; i < 20; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second/4)
	}
	n.Run(60 * sim.Second)
	st := n.Middlebox.Stats()
	if st.DropsByClass[core.ClassRecovery] == 0 || st.RtxDrops == 0 {
		t.Fatalf("Recovery drops %d, retransmission drops %d: the scenario no longer sheds retransmissions",
			st.DropsByClass[core.ClassRecovery], st.RtxDrops)
	}
	text := string(reg.Snapshot().AppendText(nil))
	want := []string{fmt.Sprintf("\ntaq_retransmit_drops_total %d\n", st.RtxDrops)}
	for c, label := range core.ClassLabels() {
		want = append(want, fmt.Sprintf("\ntaq_drops_total{class=%q} %d\n", label, st.DropsByClass[c]))
	}
	for _, line := range want {
		if !strings.Contains(text, line) {
			t.Errorf("exposition lacks %q; Stats = %+v", strings.TrimSpace(line), st)
		}
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
