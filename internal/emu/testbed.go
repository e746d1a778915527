package emu

import (
	"taq/internal/obs"
	"taq/internal/obs/obshttp"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
)

// TestbedConfig describes a prototype/testbed scenario: the simulator's
// dumbbell (hosts behind a middlebox in front of a constrained
// bottleneck, the paper's §5.4 setup) run against the wall clock.
type TestbedConfig struct {
	// Config is the scenario, with the simulator's defaults; Seed seeds
	// the wall-clock engine's random source.
	topology.Config
	// Speedup scales virtual against wall time (≤0 → real time).
	Speedup float64
	// HTTPAddr, when non-empty, serves the live introspection endpoint
	// (Prometheus /metrics + pprof) on that address, e.g.
	// "127.0.0.1:0", and enables the network's metrics registry to
	// feed it. This is strictly an emu-side feature: the
	// discrete-event path never starts a listener.
	HTTPAddr string
}

// Testbed is a running real-time scenario: a topology.Network on a
// wall-clock Engine. Timer callbacks own the network between calls, so
// touch Net only inside Snapshot (or Engine.Post) — to enable tracing,
// metrics or a time series before the first flow, to add flows, and to
// read results.
type Testbed struct {
	Engine *Engine
	Net    *topology.Network
	// HTTP is the live introspection server (non-nil when HTTPAddr was
	// set and the listener started); HTTPErr records a failed start.
	HTTP    *obshttp.Server
	HTTPErr error
}

// NewTestbed builds the scenario (middlebox + emulated bottleneck). It
// panics on an invalid cfg.Config, as topology.MustNew does.
func NewTestbed(cfg TestbedConfig) *Testbed {
	t := &Testbed{Engine: NewEngine(cfg.Seed, cfg.Speedup)}
	t.Engine.Post(func() {
		net, err := topology.NewOn(t.Engine, cfg.Config)
		if err != nil {
			panic(err)
		}
		t.Net = net
		if cfg.HTTPAddr != "" {
			net.EnableMetrics()
		}
	})
	if cfg.HTTPAddr != "" {
		// The callback runs on HTTP goroutines; Post serializes the
		// registry's reads against the engine's callbacks.
		t.HTTP, t.HTTPErr = obshttp.Serve(cfg.HTTPAddr, obshttp.Options{
			Metrics: func() (s *obs.MetricsSnapshot) {
				t.Engine.Post(func() { s = t.Net.Metrics.Snapshot() })
				return s
			},
		})
	}
	return t
}

// AddBulkFlow starts a long-running download through the middlebox
// (the testbed's "long lived requests to the webserver", §5.4).
func (t *Testbed) AddBulkFlow() packet.FlowID {
	var id packet.FlowID
	t.Engine.Post(func() {
		id = t.Net.AddFlow(packet.PoolNone, tcp.BulkApp{}, t.Engine.Now()).ID
	})
	return id
}

// RunFor advances the testbed by the given virtual duration (blocking
// the calling goroutine in wall time).
func (t *Testbed) RunFor(virtual sim.Time) { t.Engine.RunFor(virtual) }

// Stop halts all activity, flushes the trace recorder, and closes the
// live endpoint. A time series started through Net.SampleSeries is the
// caller's to stop.
func (t *Testbed) Stop() {
	t.Engine.Post(func() { t.Net.Events.Flush() })
	t.Engine.Stop()
	t.HTTP.Close()
}

// Snapshot runs fn serialized against the scenario so it can safely
// read or configure Net.
func (t *Testbed) Snapshot(fn func()) { t.Engine.Post(fn) }
