package main

import (
	"runtime"
	"time"

	"taq"
	"taq/internal/core"
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/obs"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// The isolated drivers (source D) call one layer's public functions for
// a fixed operation count, with the harness playing whatever the layer
// talks to. They say what a call costs on its own; the workloads say
// how much that matters.

const driverBatches = 5

// timeOps runs batch(n) once to warm up and driverBatches times timed,
// and reports the median time per operation in nanoseconds ÷ div, with
// the allocations per operation beside it.
func timeOps(name string, n int, div float64, batch func(n int)) value {
	batch(n)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	per := make([]float64, driverBatches)
	for i := range per {
		t0 := time.Now()
		batch(n)
		per[i] = float64(time.Since(t0)) / float64(n) / div
	}
	runtime.ReadMemStats(&ms1)
	v := median(name, per)
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(n*driverBatches)
	v.Allocs = &allocs
	return v
}

// runDrivers measures every layer's isolated costs. scale shrinks the
// operation counts for the test run.
func runDrivers(scale float64) []value {
	ops := func(n int) int { return max(int(float64(n)*min(scale, 1)), 64) }
	var out []value
	out = append(out, simDrivers(ops)...)
	out = append(out, tcpDrivers(ops)...)
	out = append(out, linkQueueDrivers(ops)...)
	out = append(out, obsDrivers(ops)...)
	out = append(out, metricsDrivers(ops)...)
	out = append(out, setupDrivers(ops)...)
	out = append(out, emuDrivers(ops)...)
	return out
}

func simDrivers(ops func(int) int) []value {
	const pending = 1024
	r := rng{s: 1}
	// A delay of 1-1000 µs from a draw. It takes the draw rather than
	// making it: RED calls a func() sim.Time, so a literal of that type
	// that called rng.next would pull the method into taqvet's hot-path
	// closure, and the committed closure must not grow by the harness.
	delay := func(draw uint64) taq.Time { return taq.Time(draw%1000+1) * taq.Microsecond }

	// Every firing re-arms itself, so the heap holds 1024 timers
	// throughout: one operation is one pop, one callback, one push.
	eng := taq.NewEngine(1)
	var fire func()
	fire = func() { eng.After(delay(r.next()), fire) }
	for i := 0; i < pending; i++ {
		eng.After(delay(r.next()), fire)
	}
	after := timeOps("sim.after_fire_ns", ops(400_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})

	eng2 := taq.NewEngine(1)
	noop := func() {}
	timers := make([]*sim.Timer, pending)
	for i := range timers {
		timers[i] = eng2.Schedule(delay(r.next()), noop)
	}
	resched := timeOps("sim.reschedule_ns", ops(400_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			k := int(r.next() % pending)
			timers[k] = eng2.Reschedule(timers[k], delay(r.next()), noop)
		}
	})
	return []value{after, resched}
}

func tcpDrivers(ops func(int) int) []value {
	cfg := taq.DefaultTCPConfig()

	// The harness is the receiver: it acks each data packet the sender
	// emits, in order, one millisecond of virtual time apart.
	eng := taq.NewEngine(1)
	var sent []*taq.Packet
	snd := tcp.NewSender(eng, cfg, 1, taq.PoolNone, taq.BulkApp{}, func(p *taq.Packet) { sent = append(sent, p) })
	snd.Start()
	snd.Deliver(&taq.Packet{Flow: 1, Kind: taq.KindSynAck})
	head := 1 // sent[0] is the SYN
	ack := taq.Packet{Flow: 1, Kind: taq.KindAck, Size: cfg.AckSize}
	onAck := timeOps("tcp.sender_ack_ns", ops(200_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			eng.RunUntil(eng.Now() + taq.Millisecond)
			ack.CumAck = sent[head].Seq + 1
			head++
			if head > 4096 {
				sent = append(sent[:0], sent[head:]...)
				head = 0
			}
			snd.Deliver(&ack)
		}
	})

	eng2 := taq.NewEngine(1)
	rcv := tcp.NewReceiver(eng2, cfg, 1, taq.PoolNone, func(*taq.Packet) {})
	data := taq.Packet{Flow: 1, Kind: taq.KindData, Size: cfg.MSS}
	onData := timeOps("tcp.receiver_data_ns", ops(400_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			rcv.Deliver(&data)
			data.Seq++
		}
	})

	// A sender whose data is never acked: the only pending event is its
	// retransmission timer, so one engine step is one timeout.
	eng3 := taq.NewEngine(1)
	stuck := tcp.NewSender(eng3, cfg, 1, taq.PoolNone, taq.BulkApp{}, func(*taq.Packet) {})
	stuck.Start()
	stuck.Deliver(&taq.Packet{Flow: 1, Kind: taq.KindSynAck})
	onRTO := timeOps("tcp.sender_rto_ns", ops(100_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			eng3.Step()
		}
	})
	return []value{onAck, onData, onRTO}
}

func linkQueueDrivers(ops func(int) int) []value {
	eng := taq.NewEngine(1)
	free := make([]*taq.Packet, 64)
	for i := range free {
		free[i] = &taq.Packet{Flow: 1, Kind: taq.KindData, Size: 500}
	}
	l := link.New(eng, 10*taq.Mbps, taq.Millisecond, queue.NewDropTail(64), func(p *taq.Packet) { free = append(free, p) })
	deliver := timeOps("link.enqueue_deliver_ns", ops(200_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			l.Enqueue(p)
			if len(free) == 32 {
				eng.Run() // serialize, propagate and deliver the backlog
			}
		}
		eng.Run()
	})

	// An enqueue-dequeue pair on a half-full queue.
	pair := func(name string, q queue.Discipline) value {
		for i := 0; i < 32; i++ {
			q.Enqueue(&taq.Packet{Flow: taq.FlowID(i), Kind: taq.KindData, Size: 500})
		}
		p := &taq.Packet{Kind: taq.KindData, Size: 500}
		return timeOps(name, ops(500_000), 1, func(n int) {
			for i := 0; i < n; i++ {
				p.Flow = taq.FlowID(i & 63)
				q.Enqueue(p)
				p = q.Dequeue()
			}
		})
	}
	qeng := taq.NewEngine(1)
	return []value{
		deliver,
		pair("queue.droptail_ns", queue.NewDropTail(64)),
		pair("queue.red_ns", queue.NewRED(queue.REDConfig{Capacity: 64}, qeng.Now, qeng.Rand())),
		pair("queue.sfq_ns", queue.NewSFQ(64, 64)),
	}
}

func obsDrivers(ops func(int) int) []value {
	reg := obs.NewRegistry()
	classes := core.ClassLabels()
	ctr := reg.CounterVec("bench_ops_total", "driver counter", "class", classes)
	hist := reg.HistogramVec("bench_delay_seconds", "driver histogram", obs.DelayBuckets(), "class", classes)
	add := timeOps("obs.counter_add_ns", ops(1_000_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			ctr.AddAt(i%len(classes), 1)
		}
	})
	observe := timeOps("obs.hist_observe_ns", ops(1_000_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			hist.ObserveAt(i%len(classes), taq.Time(i%4096)*taq.Millisecond)
		}
	})

	// The registry a TAQ network carries: middlebox, link and FCT schema.
	full := obs.NewRegistry()
	core.NewMetrics(full)
	link.NewMetrics(full)
	obs.FCTHistogram(full)
	snapshot := timeOps("obs.snapshot_us", ops(10_000), 1e3, func(n int) {
		for i := 0; i < n; i++ {
			full.Snapshot()
		}
	})

	rec := obs.NewRecorder(nil, obs.DefaultRingSize)
	p := taq.Packet{Flow: 1, Kind: taq.KindData, Size: 500}
	event := timeOps("obs.recorder_event_ns", ops(1_000_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			rec.Enqueue(taq.Time(i), &p, -1)
		}
	})
	return []value{add, observe, snapshot, event}
}

func metricsDrivers(ops func(int) int) []value {
	sl := metrics.NewSlicer(20 * taq.Second)
	for f := 0; f < 60; f++ {
		sl.Register(taq.FlowID(f), 0)
	}
	var at taq.Time
	record := timeOps("metrics.slicer_record_ns", ops(500_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			at += 7 * taq.Millisecond
			sl.Record(taq.FlowID(i%60), at, 500)
		}
	})

	r := rng{s: 1}
	add := timeOps("metrics.cdf_add_ns", ops(500_000), 1, func(n int) {
		var c taq.CDF
		for i := 0; i < n; i++ {
			c.Add(r.float())
		}
	})

	// One insert makes the CDF unsorted again, so each query pays for
	// a sort of all 100 000 samples.
	var big taq.CDF
	for i := 0; i < ops(100_000); i++ {
		big.Add(r.float())
	}
	percentile := timeOps("metrics.cdf_percentile_ms", 4, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			big.Add(r.float())
			big.Percentile(99)
		}
	})
	return []value{record, add, percentile}
}

func setupDrivers(ops func(int) int) []value {
	flows := ops(2000)
	var nets []*taq.Network // held so that bytes per flow sees them live
	addFlow := timeOps("topology.add_flow_us", flows, 1e3, func(n int) {
		net := taq.NewNetwork(taq.NetworkConfig{Seed: 1, Bandwidth: taq.Mbps, Queue: taq.QueueTAQ})
		for i := 0; i < n; i++ {
			net.AddFlow(taq.PoolNone, taq.BulkApp{}, taq.Time(i)*taq.Millisecond)
		}
		nets = append(nets[:0], net)
	})
	var ms0, ms1 runtime.MemStats
	nets = nil
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	net := taq.NewNetwork(taq.NetworkConfig{Seed: 1, Bandwidth: taq.Mbps, Queue: taq.QueueTAQ})
	for i := 0; i < flows; i++ {
		net.AddFlow(taq.PoolNone, taq.BulkApp{}, taq.Time(i)*taq.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	perFlow := single("topology.bytes_per_flow", float64(ms1.HeapAlloc-ms0.HeapAlloc)/float64(flows))
	runtime.KeepAlive(net)

	gen := taq.DefaultTraceConfig()
	gen.Duration = taq.FromSeconds(float64(ops(3600)))
	recs := taq.GenerateTrace(gen)
	generate := timeOps("trace.generate_ns_per_rec", len(recs), 1, func(int) { taq.GenerateTrace(gen) })
	replay := timeOps("workload.replay_ns_per_rec", len(recs), 1, func(int) {
		net := taq.NewNetwork(taq.NetworkConfig{Seed: 1, Bandwidth: 2 * taq.Mbps, Queue: taq.QueueTAQ})
		taq.Replay(net, recs, 4, taq.ReplayTimed)
	})
	return []value{addFlow, perFlow, replay, generate}
}

func emuDrivers(ops func(int) int) []value {
	eng := emu.NewEngine(1, 1)
	defer eng.Stop()
	noop := func() {}
	post := timeOps("emu.post_ns", ops(1_000_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			eng.Post(noop)
		}
	})
	now := timeOps("emu.now_ns", ops(1_000_000), 1, func(n int) {
		for i := 0; i < n; i++ {
			eng.Now()
		}
	})
	return []value{post, now}
}
