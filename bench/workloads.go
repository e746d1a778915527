package main

import (
	"sort"

	"taq"
)

// wlSpec names one workload. scale is run seconds ÷ 10: every workload
// is sized so that one repetition takes about half a wall second at
// scale 1 on the sizing host, and a repetition's work is fixed by scale
// and seed alone, never by the clock, so counts and digests repeat.
// Repetitions are short and many so that the host-speed samples taken
// between them (hostspeed.go) sit close to the work they normalise.
type wlSpec struct {
	name string
	why  string
	// repeatable workloads rebuild all simulated state in every
	// repetition, so the warm-up and the last timed repetition (same
	// sub-seed) must agree on the sim_digest.
	repeatable bool
	// builds is how many times a run builds the workload's state for
	// the set-up metric's median (0: setupBuilds).
	builds int
	make   func(scale float64) workload
	// regime checks that the run sat in the regime the workload exists
	// to measure (nil: nothing to check).
	regime func(r *wlResult, outs []repOut, scale float64)
	// reruns are the traced pass's comparisons that need the workload
	// run again in another configuration (nil: none).
	reruns func(r *wlResult, seed int64, scale float64, base []repOut) []value
}

// timedReps is how many timed repetitions a run makes of any workload.
const timedReps = 12

// emuPacketsPerRep is what the shard bank is offered per repetition at
// scale 1, whatever its shard count.
const emuPacketsPerRep = 320_000

func dumbbellTAQ(scale float64) *dumbbell {
	return &dumbbell{queue: taq.QueueTAQ, simSecs: 2500 * scale}
}

var specs = []wlSpec{
	{
		name: "dumbbell-taq", repeatable: true,
		why:    "60 bulk NewReno flows on 600 Kbps behind TAQ (10 Kbps fair share): sim, tcp, link, core and metrics all work; the headline simulated packets per wall second",
		make:   func(s float64) workload { return dumbbellTAQ(s) },
		reruns: obsReruns,
	},
	{
		name: "dumbbell-droptail", repeatable: true,
		why:  "same dumbbell behind DropTail: core and obs do nothing, so a core change must not move it and an engine or TCP change moves it most",
		make: func(s float64) workload { return &dumbbell{queue: taq.QueueDropTail, simSecs: 3600 * s} },
	},
	{
		name: "web-replay-taq", repeatable: true,
		why:  "open-loop replay of a generated access log, one short connection per object, TAQ with admission and the metrics registry on: flow create/expire, SYN classification and sessions carry the load",
		make: func(s float64) workload { return &webReplay{window: taq.FromSeconds(650 * s)} },
	},
	{
		name: "mbox-hot", repeatable: true,
		why:    "raw middlebox, 4096 flows cache-resident at 20-30 % drops: classify/enqueue/victim/dequeue is all of the time, so a per-packet core change shows undiluted",
		make:   func(s float64) workload { return newMbox(4096, 10*s, false) },
		regime: dropRegime,
	},
	{
		name: "mbox-1m", builds: 1, // six seconds each: one is steadier than the median of three short ones
		why:    "same middlebox over a million flow ids, half the traffic uniform: index probes miss, scan ticks walk a large table, expiry and slot recycling run continuously",
		make:   func(s float64) workload { return newMbox(millionFlows(s), 9*s, true) },
		regime: millionRegime,
	},
	{
		name:   "emu-shards",
		why:    "two-shard wall-clock bank fed by two goroutines at constant total work: the only path through the engine lock, Post, real timers and the shared aggregator",
		make:   func(s float64) workload { return newEmuShards(2, int(emuPacketsPerRep*s)) },
		regime: dropRegime,
		reruns: shardReruns,
	},
}

func specByName(name string) (wlSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return wlSpec{}, false
}

// dropRegime holds the raw-middlebox workloads to the loss regime the
// paper's claim is about.
func dropRegime(r *wlResult, outs []repOut, scale float64) {
	if scale < 1 {
		return // shrunken test runs are dominated by the start-up transient
	}
	var off, drop uint64
	for i := range outs {
		off += outs[i].offered
		drop += outs[i].dropped
	}
	if share := float64(drop) / float64(off); share < 0.20 || share > 0.30 {
		r.fail(0, "drop share %.3f outside the 0.20-0.30 regime", share)
	}
}

func millionRegime(r *wlResult, outs []repOut, scale float64) {
	dropRegime(r, outs, scale)
	if scale >= 1 && outs[len(outs)-1].tracked < 500_000 {
		r.fail(0, "ended with %d tracked flows, want >= 500000", outs[len(outs)-1].tracked)
	}
}

// dumbbell is the paper's canonical sub-packet scenario through the
// whole simulator stack. A closed loop: 60 TCP senders, each waiting on
// its own acks.
type dumbbell struct {
	queue   taq.QueueKind
	simSecs float64
	// instrument, when set, switches telemetry on before the run (the
	// obs cost reruns of the traced pass).
	instrument func(*taq.Network)
}

func (d *dumbbell) build(int64, *hostRef) {}
func (d *dumbbell) close()                {}

func (d *dumbbell) rep(sub int64, tr *tracer) repOut {
	net := taq.NewNetwork(taq.NetworkConfig{
		Seed: sub, Bandwidth: 600 * taq.Kbps, Queue: d.queue, RTTJitter: 0.25,
	})
	flows := taq.AddBulkFlows(net, 60, 50*taq.Millisecond)
	if d.instrument != nil {
		d.instrument(net)
	}
	o := runNetwork(net, taq.FromSeconds(d.simSecs), tr)

	o.attempted = uint64(len(flows))
	for _, f := range flows {
		if f.Sender.Failed() {
			o.failed++
		}
	}
	slices := int(net.Engine.Now() / net.Slicer.Width())
	o.jfi = net.Slicer.MeanSliceJFI(1, slices)
	dg := networkDigest(net, &o)
	for _, f := range flows {
		dg.f64(net.Slicer.FlowTotal(f.ID))
	}
	dg.f64(o.jfi)
	o.digest = dg.h
	return o
}

// simSlices is how many calls to Network.Run a repetition is cut into.
const simSlices = 256

// runNetwork meters net.Run and takes the packet counts at the
// bottleneck discipline's own interface.
func runNetwork(net *taq.Network, until taq.Time, tr *tracer) repOut {
	var o repOut
	disc := net.Link.Discipline()
	disc.AddDropHook(func(*taq.Packet) { o.dropped++ })

	m := startMeter()
	rep := tr.begin(spanRep, -1)
	// Slices of a few milliseconds: each is a boundary at which the
	// reference kernel may take its turn, and a span on the trace's
	// time axis.
	for i := 1; i <= simSlices; i++ {
		s := tr.begin(spanSimRun, rep)
		net.Run(taq.FromSeconds(until.Seconds() * float64(i) / simSlices))
		tr.end(s)
		m.ref.maybe()
	}
	net.Run(until) // whatever the float arithmetic left of the last slice
	tr.end(rep)
	m.stop(&o)

	o.offered = net.QueueArrivals
	o.served = net.Link.SentPackets
	o.inTx = 1
	o.qlen = disc.Len()
	o.events = net.Engine.Processed
	o.simSecs = until.Seconds()
	o.util = net.Utilization()
	o.timeouts, o.repTimeouts = net.AggregateTimeouts()
	return o
}

func networkDigest(net *taq.Network, o *repOut) digest {
	dg := newDigest()
	dg.u64(o.offered)
	dg.u64(o.dropped)
	dg.u64(o.timeouts)
	dg.u64(o.repTimeouts)
	return dg
}

// webReplay drives a generated access log through per-client sessions.
// An open loop: objects are requested at their logged times whatever
// the network does (221 clients × 1.5 requests a minute), each on its
// own connection, at most four per client at once.
type webReplay struct {
	window taq.Time
	recs   []taq.TraceRecord
}

// drain is how long after the last logged request the replay runs on,
// so that stragglers finish and every object can be counted.
const drain = 900 * taq.Second

func (w *webReplay) build(seed int64, _ *hostRef) {
	gen := taq.DefaultTraceConfig()
	gen.Seed = seed
	gen.Duration = w.window
	gen.MaxSize = 1 << 20
	w.recs = taq.GenerateTrace(gen)
}

func (w *webReplay) close() {}

func (w *webReplay) rep(sub int64, tr *tracer) repOut {
	tcp := taq.DefaultTCPConfig()
	tcp.MaxSynRetries = -1 // Fig 12: clients retry until admitted
	tcp.MaxSynTimeout = 4 * taq.Second
	mb := taq.DefaultMiddleboxConfig(2*taq.Mbps, 0)
	mb.AdmissionControl = true
	net := taq.NewNetwork(taq.NetworkConfig{
		Seed: sub, Bandwidth: 2 * taq.Mbps, Queue: taq.QueueTAQ, RTTJitter: 0.25, TCP: tcp, TAQ: &mb,
	})
	net.EnableMetrics()
	sessions := taq.Replay(net, w.recs, 4, taq.ReplayTimed)
	o := runNetwork(net, w.window+drain, tr)

	clients := make([]int, 0, len(sessions))
	for c := range sessions {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	dg := networkDigest(net, &o)
	for _, c := range clients {
		for _, r := range sessions[c].Results {
			o.attempted++
			if !r.Done {
				o.failed++
				continue
			}
			// From when the object was due, not from when a connection
			// slot freed up: a stall delays later requests too.
			fct := (r.End - r.Requested).Seconds()
			o.fcts = append(o.fcts, fct)
			dg.f64(fct)
		}
	}
	o.digest = dg.h
	return o
}
