package emu

import (
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/obs"
	"taq/internal/obs/obshttp"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// TestbedConfig describes a prototype/testbed scenario: hosts behind a
// middlebox that emulates a constrained bottleneck (the paper's §5.4
// setup: a middlebox with two NICs in front of an emulated 600 Kbps /
// 1 Mbps link).
type TestbedConfig struct {
	Seed int64
	// Speedup scales virtual against wall time (≤0 → real time).
	Speedup   float64
	Bandwidth link.Bps
	PropRTT   sim.Time
	// BufferPackets defaults to one PropRTT of packets.
	BufferPackets int
	// UseTAQ selects the TAQ middlebox instead of DropTail.
	UseTAQ bool
	// TAQ optionally overrides the middlebox configuration.
	TAQ *core.Config
	// TCP is the endpoint configuration (zero → tcp.DefaultConfig).
	TCP tcp.Config
	// SliceWidth for fairness metrics (default 20 s).
	SliceWidth sim.Time

	// Events, when non-nil, receives the structured bottleneck trace
	// (recorded under the engine lock; Stop flushes it).
	Events *obs.Recorder
	// GaugeSink, when non-nil, receives periodic gauge samples every
	// GaugeInterval of virtual time (default one virtual second).
	GaugeSink     obs.SeriesSink
	GaugeInterval sim.Time
	// HTTPAddr, when non-empty, serves the live introspection endpoint
	// (gauge snapshot + Prometheus /metrics + pprof) on that address,
	// e.g. "127.0.0.1:0". This is strictly an emu-side feature: the
	// discrete-event path never starts a listener.
	HTTPAddr string
	// EnableMetrics creates a metrics registry for the testbed (also
	// implied by HTTPAddr): link + FCT instruments, plus the TAQ
	// per-class schema when UseTAQ is set. Snapshot it via
	// Testbed.Metrics.
	EnableMetrics bool
}

func (c *TestbedConfig) fillDefaults() {
	if c.Bandwidth == 0 {
		c.Bandwidth = 600 * link.Kbps
	}
	if c.PropRTT == 0 {
		c.PropRTT = 200 * sim.Millisecond
	}
	if c.TCP.MSS == 0 {
		c.TCP = tcp.DefaultConfig()
	}
	if c.BufferPackets == 0 {
		bdp := float64(c.Bandwidth) * c.PropRTT.Seconds() / 8 / float64(c.TCP.MSS)
		c.BufferPackets = int(bdp)
		if c.BufferPackets < 2 {
			c.BufferPackets = 2
		}
	}
	if c.SliceWidth == 0 {
		c.SliceWidth = 20 * sim.Second
	}
}

// Testbed is a running real-time scenario. Access results through
// Snapshot after RunFor/Stop.
type Testbed struct {
	Cfg       TestbedConfig
	Engine    *Engine
	Link      *link.Link
	Middlebox *core.Sharded
	Slicer    *metrics.Slicer
	// Gauges is the sampled time series (non-nil when GaugeSink or
	// HTTPAddr is configured).
	Gauges *obs.GaugeSet
	// HTTP is the live introspection server (non-nil when HTTPAddr was
	// set and the listener started); HTTPErr records a failed start.
	HTTP    *obshttp.Server
	HTTPErr error
	// Metrics is the counters/histograms registry (non-nil when
	// EnableMetrics or HTTPAddr is configured). Registry cells are
	// atomics, so Metrics.Snapshot is safe without Engine.Post.
	Metrics *obs.Registry
	// fct is the registry's flow-completion-time histogram.
	fct *obs.Histogram

	flows  map[packet.FlowID]*tbFlow
	nextID packet.FlowID

	QueueArrivals, QueueDrops uint64
}

type tbFlow struct {
	id       packet.FlowID
	sender   *tcp.Sender
	receiver *tcp.Receiver
}

// NewTestbed builds the scenario (middlebox + emulated bottleneck).
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg.fillDefaults()
	t := &Testbed{
		Cfg:    cfg,
		Engine: NewEngine(cfg.Seed, cfg.Speedup),
		Slicer: metrics.NewSlicer(cfg.SliceWidth),
		flows:  make(map[packet.FlowID]*tbFlow),
	}
	t.Engine.Post(func() {
		var disc queue.Discipline
		if cfg.UseTAQ {
			tcfg := core.ResolveConfig(cfg.TAQ, cfg.Bandwidth, cfg.BufferPackets)
			t.Middlebox = core.NewSharded(t.Engine, tcfg, 1)
			t.Middlebox.Start()
			disc = t.Middlebox
		} else {
			disc = queue.NewDropTail(cfg.BufferPackets)
		}
		disc.AddDropHook(func(*packet.Packet) { t.QueueDrops++ })
		t.Link = link.New(t.Engine, cfg.Bandwidth, 0, disc, t.deliver)
		if cfg.EnableMetrics || cfg.HTTPAddr != "" {
			t.Metrics = obs.NewRegistry()
			t.Link.SetMetrics(link.NewMetrics(t.Metrics))
			t.fct = obs.FCTHistogram(t.Metrics)
			if t.Middlebox != nil {
				t.Middlebox.SetMetrics(core.NewMetrics(t.Metrics))
			}
		}
		if cfg.Events != nil {
			t.Link.SetRecorder(cfg.Events)
			if t.Middlebox != nil {
				t.Middlebox.SetRecorder(cfg.Events)
			} else {
				disc.AddDropHook(func(p *packet.Packet) {
					cfg.Events.Drop(t.Engine.Now(), p, -1, p.Retransmit)
				})
			}
		}
		if cfg.GaugeSink != nil || cfg.HTTPAddr != "" {
			t.Gauges = obs.NewGaugeSet(t.Engine, cfg.GaugeInterval, cfg.GaugeSink)
			t.Gauges.RegisterInt("qlen", disc.Len)
			t.Gauges.RegisterInt("qbytes", disc.Bytes)
			t.Gauges.Register("arrivals", func() float64 { return float64(t.QueueArrivals) })
			t.Gauges.Register("drops", func() float64 { return float64(t.QueueDrops) })
			if mb := t.Middlebox; mb != nil {
				t.Gauges.RegisterInt("active_flows", mb.ActiveFlows)
				t.Gauges.RegisterInt("recovering_flows", mb.RecoveringFlows)
				t.Gauges.Register("loss_ewma", mb.LossEWMA)
				t.Gauges.RegisterInt("waiting_pools", mb.WaitingPools)
			}
			if cfg.GaugeSink != nil {
				t.Gauges.Start()
			}
		}
	})
	if cfg.HTTPAddr != "" {
		// The /vars callback runs on HTTP goroutines; Post serializes
		// the gauge reads against the engine's callbacks. The /metrics
		// snapshot needs no Post: registry cells are atomics, the
		// lock-free read edge.
		t.HTTP, t.HTTPErr = obshttp.Serve(cfg.HTTPAddr, obshttp.Options{
			Vars: func() (names []string, values []float64) {
				t.Engine.Post(func() { names, values = t.Gauges.Snapshot() })
				return names, values
			},
			Metrics: t.Metrics.Snapshot,
		})
	}
	return t
}

func (t *Testbed) deliver(p *packet.Packet) {
	f, ok := t.flows[p.Flow]
	if !ok {
		return
	}
	// Per-packet propagation timers are fire-once and sub-RTT;
	// Engine.Stop gates every callback, so they cannot outlive teardown.
	// sim.After returns no handle, so there is nothing to leak.
	sim.After(t.Engine, t.Cfg.PropRTT/4, func() { f.receiver.Deliver(p) })
}

// AddBulkFlow starts a long-running download through the middlebox
// (the testbed's "long lived requests to the webserver", §5.4).
func (t *Testbed) AddBulkFlow() packet.FlowID {
	var id packet.FlowID
	t.Engine.Post(func() {
		id = t.nextID
		t.nextID++
		rtt := t.Cfg.PropRTT
		f := &tbFlow{id: id}
		f.receiver = tcp.NewReceiver(t.Engine, t.Cfg.TCP, id, packet.PoolNone, func(p *packet.Packet) {
			sim.After(t.Engine, rtt/2, func() { f.sender.Deliver(p) })
		})
		mss := t.Cfg.TCP.MSS
		f.receiver.OnDeliver = func(segs int) {
			t.Slicer.Record(id, t.Engine.Now(), segs*mss)
		}
		f.sender = tcp.NewSender(t.Engine, t.Cfg.TCP, id, packet.PoolNone, tcp.BulkApp{}, func(p *packet.Packet) {
			sim.After(t.Engine, rtt/4, func() {
				t.QueueArrivals++
				t.Link.Enqueue(p)
			})
		})
		t.flows[id] = f
		t.Slicer.Register(id, t.Engine.Now())
		f.sender.Start()
	})
	return id
}

// AddSizedFlow starts a fixed-size transfer (segs segments) in the
// given pool; exactly one of onComplete/onFail runs (under the engine
// lock) when the transfer finishes or the handshake gives up. This is
// the testbed's web-object primitive (§5.4–5.5).
//
// Unlike AddBulkFlow it must be called while the engine lock is held —
// i.e. from a scheduled callback or a function passed to Engine.Post —
// because its own callbacks re-enter session state. The workload
// package's TestbedHost guarantees this.
func (t *Testbed) AddSizedFlow(pool packet.PoolID, segs int, onComplete, onFail func()) packet.FlowID {
	var id packet.FlowID
	func() {
		id = t.nextID
		t.nextID++
		rtt := t.Cfg.PropRTT
		f := &tbFlow{id: id}
		f.receiver = tcp.NewReceiver(t.Engine, t.Cfg.TCP, id, pool, func(p *packet.Packet) {
			sim.After(t.Engine, rtt/2, func() { f.sender.Deliver(p) })
		})
		mss := t.Cfg.TCP.MSS
		f.receiver.OnDeliver = func(n int) {
			t.Slicer.Record(id, t.Engine.Now(), n*mss)
		}
		app := &tcp.SizedApp{Total: segs}
		f.sender = tcp.NewSender(t.Engine, t.Cfg.TCP, id, pool, app, func(p *packet.Packet) {
			sim.After(t.Engine, rtt/4, func() {
				t.QueueArrivals++
				t.Link.Enqueue(p)
			})
		})
		started := t.Engine.Now()
		app.OnComplete = func() {
			t.Slicer.Finish(id, t.Engine.Now())
			if t.fct != nil {
				t.fct.ObserveAt(obs.FCTSizeClass(segs*mss), t.Engine.Now()-started)
			}
			if onComplete != nil {
				onComplete()
			}
		}
		f.sender.OnFail = func() {
			t.Slicer.Finish(id, t.Engine.Now())
			if onFail != nil {
				onFail()
			}
		}
		t.flows[id] = f
		t.Slicer.Register(id, t.Engine.Now())
		f.sender.Start()
	}()
	return id
}

// RunFor advances the testbed by the given virtual duration (blocking
// the calling goroutine in wall time).
func (t *Testbed) RunFor(virtual sim.Time) { t.Engine.RunFor(virtual) }

// Stop halts all activity, flushes the trace recorder and gauge sink,
// and closes the live endpoint.
func (t *Testbed) Stop() {
	t.Engine.Post(func() {
		t.Gauges.Stop()
		t.Cfg.Events.Flush()
	})
	t.Engine.Stop()
	t.HTTP.Close()
}

// Snapshot runs fn serialized against the scenario so it can safely
// read Slicer, Link and counter state.
func (t *Testbed) Snapshot(fn func()) { t.Engine.Post(fn) }

// NumFlows returns the number of flows added.
func (t *Testbed) NumFlows() int {
	n := 0
	t.Engine.Post(func() { n = len(t.flows) })
	return n
}
