// Zero-allocation proofs for every declared //taq:hotpath root. The
// table below is keyed by the same root names taqvet's call-graph pass
// discovers (`go run ./cmd/taqvet -roots ./...`), and the test fails
// if the two lists drift: a new annotated root must bring an
// AllocsPerRun harness, and a retired one must take its row along.
// Several roots share one exercise — a warmed enqueue/dequeue cycle
// drives Enqueue, Dequeue and the tracker's catchUp at once — but
// every root must be claimed by exactly one row.
package taq_test

import (
	"runtime"
	"testing"

	"taq/internal/analysis"
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/workload"
)

// hotRootCase exercises one or more hotpath roots at steady state and
// reports the AllocsPerRun observed.
type hotRootCase struct {
	// roots are the exact root names (types.Func.FullName form) this
	// case claims from the analysis closure.
	roots []string
	run   func(t *testing.T) float64
}

// mkPackets returns count warmup packets spread over eight flows.
func mkPackets(count int) []*packet.Packet {
	pkts := make([]*packet.Packet, count)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Flow: packet.FlowID(i % 8), Kind: packet.Data,
			Seq: i, Size: 500,
		}
	}
	return pkts
}

// cycleDiscipline warms disc and measures a steady-state
// enqueue/dequeue cycle.
func cycleDiscipline(disc queue.Discipline, pkts []*packet.Packet) float64 {
	for _, p := range pkts {
		disc.Enqueue(p)
	}
	for disc.Dequeue() != nil {
	}
	i := 0
	return testing.AllocsPerRun(1000, func() {
		disc.Enqueue(pkts[i%len(pkts)])
		disc.Dequeue()
		i++
	})
}

var hotRootCases = []hotRootCase{
	{
		roots: []string{
			"(*taq/internal/queue.DropTail).Enqueue",
			"(*taq/internal/queue.DropTail).Dequeue",
		},
		run: func(t *testing.T) float64 {
			return cycleDiscipline(queue.NewDropTail(64), mkPackets(64))
		},
	},
	{
		roots: []string{
			"(*taq/internal/queue.RED).Enqueue",
			"(*taq/internal/queue.RED).Dequeue",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			red := queue.NewRED(queue.REDConfig{Capacity: 64, MeanPktTime: sim.Millisecond}, e.Now, e.Rand())
			return cycleDiscipline(red, mkPackets(64))
		},
	},
	{
		roots: []string{
			"(*taq/internal/queue.SFQ).Enqueue",
			"(*taq/internal/queue.SFQ).Dequeue",
		},
		run: func(t *testing.T) float64 {
			return cycleDiscipline(queue.NewSFQ(64, 64), mkPackets(64))
		},
	},
	{
		// The warmed TAQ cycle drives the whole per-packet path: shard
		// dispatch, classify, admission, class queues, and the
		// tracker's lazy epoch roll (catchUp) on every observed packet.
		roots: []string{
			"(*taq/internal/core.TAQ).Enqueue",
			"(*taq/internal/core.TAQ).Dequeue",
			"(*taq/internal/core.flowInfo).catchUp",
			"(*taq/internal/core.Sharded).Enqueue",
			"(*taq/internal/core.Sharded).Dequeue",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
			return cycleDiscipline(mb, mkPackets(64))
		},
	},
	{
		// One probe of the open-addressed flow index, hit and miss: no
		// Go map access, no allocation.
		roots: []string{"(*taq/internal/core.TAQ).FlowStateOf"},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
			for _, p := range mkPackets(64) {
				mb.Enqueue(p)
			}
			for mb.Dequeue() != nil {
			}
			var sink int
			allocs := testing.AllocsPerRun(1000, func() {
				if s, ok := mb.FlowStateOf(3); ok {
					sink += int(s)
				}
				if _, ok := mb.FlowStateOf(9999); ok {
					sink++
				}
			})
			_ = sink
			return allocs
		},
	},
	{
		roots: []string{
			"(*taq/internal/core.TAQ).ObserveReverse",
			"(*taq/internal/core.Sharded).ObserveReverse",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
			pkts := mkPackets(64)
			for _, p := range pkts {
				mb.Enqueue(p)
			}
			for mb.Dequeue() != nil {
			}
			ack := &packet.Packet{Flow: 1, Kind: packet.Ack, Seq: 1, Size: 40}
			return testing.AllocsPerRun(1000, func() {
				mb.ObserveReverse(ack)
			})
		},
	},
	{
		// The O(1) control-loop gauges, sampled together the way the
		// scan (and an operator poll) reads them. The clock moves
		// through the wheel slot holding the flows' activity deadlines
		// while they are sampled, so ActiveFlows re-files entries that
		// are not yet due, then settles them, then reads an empty wheel.
		roots: []string{
			"(*taq/internal/core.TAQ).ActiveFlows",
			"(*taq/internal/core.TAQ).RecoveringFlows",
			"(*taq/internal/core.TAQ).StateCensus",
			"(*taq/internal/core.TAQ).FairShare",
			"(*taq/internal/core.TAQ).LossRate",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
			e.RunUntil(50 * sim.Millisecond)
			for _, p := range mkPackets(64) {
				mb.Enqueue(p)
			}
			for mb.Dequeue() != nil {
			}
			sh := mb.Shard(0)
			if sh.ActiveFlows() != 8 {
				t.Fatalf("%d active flows after warm-up, want 8", sh.ActiveFlows())
			}
			e.RunUntil(810 * sim.Millisecond) // 40 ms short of the deadlines
			var sink int
			var sinkF float64
			allocs := testing.AllocsPerRun(100, func() {
				e.RunUntil(e.Now() + sim.Millisecond)
				sink += sh.ActiveFlows()
				sink += sh.RecoveringFlows()
				c := sh.StateCensus()
				sink += c[core.StateNormal]
				sinkF += sh.FairShare()
				sinkF += sh.LossRate()
			})
			_, _ = sink, sinkF
			if sh.ActiveFlows() != 0 {
				t.Fatalf("%d flows still active past their deadlines", sh.ActiveFlows())
			}
			return allocs
		},
	},
	{
		roots: []string{"(*taq/internal/link.Link).Enqueue"},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			var got *packet.Packet
			l := link.New(e, 1000*link.Kbps, sim.Millisecond, queue.NewDropTail(64), func(p *packet.Packet) { got = p })
			pkts := mkPackets(8)
			for _, p := range pkts {
				l.Enqueue(p)
			}
			e.Run()
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				l.Enqueue(pkts[i%len(pkts)])
				e.Run()
				i++
			})
			_ = got
			return allocs
		},
	},
	{
		// The engine's recycled fire-and-forget path: After allocates a
		// timer only while the free list grows; at steady state each
		// fired event returns its timer.
		roots: []string{
			"taq/internal/sim.After",
			"(*taq/internal/sim.Engine).After",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			fn := func() {}
			for i := 0; i < 64; i++ {
				sim.After(e, sim.Millisecond, fn)
			}
			e.Run()
			return testing.AllocsPerRun(1000, func() {
				sim.After(e, sim.Millisecond, fn)
				e.Run()
			})
		},
	},
	{
		// The payload-carrying form of the same path: the handler is
		// bound once, the packet rides in the recycled timer, and a
		// pointer boxes into the argument without a copy.
		roots: []string{
			"taq/internal/sim.AfterArg",
			"(*taq/internal/sim.Engine).AfterArg",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			var got *packet.Packet
			fn := func(arg any) { got = arg.(*packet.Packet) }
			pkts := mkPackets(64)
			for _, p := range pkts {
				sim.AfterArg(e, sim.Millisecond, fn, p)
			}
			e.Run()
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				sim.AfterArg(e, sim.Millisecond, fn, pkts[i%len(pkts)])
				e.Run()
				i++
			})
			_ = got
			return allocs
		},
	},
	{
		// The cancel-then-rearm churn of RTO and pacing timers: the
		// handle is reused in place, so rearming never allocates.
		roots: []string{
			"taq/internal/sim.Reschedule",
			"(*taq/internal/sim.Engine).Reschedule",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			fn := func() {}
			tm := e.Schedule(sim.Second, fn)
			return testing.AllocsPerRun(1000, func() {
				tm = sim.Reschedule(e, tm, sim.Second, fn)
			})
		},
	},
	{
		// The "zero overhead when off" contract: every tracing hook on
		// a nil recorder must reduce to a branch.
		roots: []string{
			"(*taq/internal/obs.Recorder).Enqueue",
			"(*taq/internal/obs.Recorder).Dequeue",
			"(*taq/internal/obs.Recorder).Drop",
			"(*taq/internal/obs.Recorder).TrackerTransition",
			"(*taq/internal/obs.Recorder).TimeoutDetected",
			"(*taq/internal/obs.Recorder).AdmissionDecision",
			"(*taq/internal/obs.Recorder).ClassChange",
		},
		run: func(t *testing.T) float64 {
			var r *obs.Recorder
			p := &packet.Packet{Flow: 3, Kind: packet.Data, Seq: 7, Size: 500}
			return testing.AllocsPerRun(1000, func() {
				r.Enqueue(1, p, 0)
				r.Dequeue(2, p, 0)
				r.Drop(3, p, 0, false)
				r.TrackerTransition(4, p.Flow, p.Pool, 0, 1)
				r.TimeoutDetected(5, p.Flow, p.Pool, 1, 2)
				r.AdmissionDecision(6, p.Pool, obs.AdmissionAdmitted)
				r.ClassChange(7, p, 0, 1)
			})
		},
	},
	{
		// The metrics record path, enabled AND disabled: a live counter
		// bump is one atomic add, a live histogram observation a bounds
		// search plus three; on nil instruments every method reduces to
		// a branch. Both states must be allocation-free.
		roots: []string{
			"(*taq/internal/obs.Counter).Inc",
			"(*taq/internal/obs.Counter).Add",
			"(*taq/internal/obs.Counter).IncAt",
			"(*taq/internal/obs.Counter).AddAt",
			"(*taq/internal/obs.Histogram).Observe",
			"(*taq/internal/obs.Histogram).ObserveAt",
		},
		run: func(t *testing.T) float64 {
			reg := obs.NewRegistry()
			c := reg.Counter("c_total", "plain")
			cv := reg.CounterVec("cv_total", "vec", "class", []string{"a", "b", "c"})
			h := reg.Histogram("h_seconds", "plain", obs.DelayBuckets())
			hv := reg.HistogramVec("hv_seconds", "vec", obs.FCTBuckets(), "size", obs.FCTSizeLabels)
			var nc *obs.Counter
			var nh *obs.Histogram
			i := 0
			live := testing.AllocsPerRun(1000, func() {
				c.Inc()
				c.Add(3)
				cv.IncAt(i % 3)
				cv.AddAt(i%3, 2)
				h.Observe(sim.Time(i) * sim.Microsecond)
				hv.ObserveAt(i%3, sim.Time(i)*sim.Millisecond)
				i++
			})
			off := testing.AllocsPerRun(1000, func() {
				nc.Inc()
				nc.Add(3)
				nc.IncAt(1)
				nc.AddAt(1, 2)
				nh.Observe(sim.Second)
				nh.ObserveAt(1, sim.Second)
			})
			return live + off
		},
	},
	{
		// The middlebox metrics hook, driven through a warmed TAQ cycle
		// with a live registry attached: every served packet records its
		// sojourn by class in-line.
		roots: []string{
			"(*taq/internal/core.Metrics).observeServe",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
			mb.SetMetrics(core.NewMetrics(obs.NewRegistry()))
			return cycleDiscipline(mb, mkPackets(64))
		},
	},
	{
		// The link metrics hook: per-dequeue sojourn on a metered
		// bottleneck.
		roots: []string{
			"(*taq/internal/link.Metrics).observeDequeue",
		},
		run: func(t *testing.T) float64 {
			e := sim.NewEngine(1)
			var got *packet.Packet
			l := link.New(e, 1000*link.Kbps, sim.Millisecond, queue.NewDropTail(64), func(p *packet.Packet) { got = p })
			l.SetMetrics(link.NewMetrics(obs.NewRegistry()))
			pkts := mkPackets(8)
			for _, p := range pkts {
				l.Enqueue(p)
			}
			e.Run()
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				l.Enqueue(pkts[i%len(pkts)])
				e.Run()
				i++
			})
			_ = got
			return allocs
		},
	},
}

// TestHotpathRootsZeroAlloc runs every case and requires zero
// allocations at steady state.
func TestHotpathRootsZeroAlloc(t *testing.T) {
	for _, tc := range hotRootCases {
		tc := tc
		t.Run(tc.roots[0], func(t *testing.T) {
			if allocs := tc.run(t); allocs != 0 {
				t.Fatalf("%v: %v allocs/op at steady state, want 0", tc.roots, allocs)
			}
		})
	}
}

// TestFlowStoreZeroAlloc churns the flat flow store at steady state:
// every iteration creates a brand-new flow — exercising getOrCreate's
// free-list recycle path and the open-addressed insert — while a fast
// scan cadence expires old flows, so slots and index buckets are
// recycled rather than grown. Creation, the lookup hit and miss
// probes, expiry eviction, and the deadline-wheel traffic they generate
// must all run allocation-free.
func TestFlowStoreZeroAlloc(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := core.DefaultConfig(1000*link.Kbps, 64)
	cfg.DefaultEpoch = 5 * sim.Millisecond
	cfg.ScanInterval = 10 * sim.Millisecond
	cfg.FlowExpiry = 40 * sim.Millisecond
	mb := core.NewSharded(e, cfg, 1)
	mb.Start()
	defer mb.Stop()

	const warmup, runs = 1500, 1000
	pkts := make([]*packet.Packet, warmup+runs+2)
	for i := range pkts {
		pkts[i] = &packet.Packet{Flow: packet.FlowID(i + 1), Kind: packet.Data, Size: 500}
	}
	i := 0
	step := func() {
		mb.Enqueue(pkts[i])
		mb.Dequeue()
		if _, ok := mb.FlowStateOf(pkts[i].Flow); !ok {
			t.Fatal("freshly created flow is not tracked")
		}
		mb.FlowStateOf(packet.FlowID(-1)) // miss probe
		i++
		e.RunUntil(e.Now() + sim.Millisecond)
	}
	for i < warmup {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("flow churn: %v allocs/op at steady state, want 0", allocs)
	}
}

// TestSimPacketPathAllocs is the whole-path row the per-root rows
// cannot give: a packet's trip sender → access delay → bottleneck →
// receiver → ack → sender, through sim, tcp, topology and link at once
// (the benchmark's dumbbell-droptail, shortened). At steady state the
// path itself allocates nothing — events carry the packet, packets come
// from the network's pool, timer callbacks are bound once — and what
// remains is the packets lost to queue drops, which nobody returns to
// the pool: 0.24 per packet offered, at a drop share of 0.20. Closures
// per hop and a packet per transmission made it 5.3; the bound sits
// just above what is left so a regression fails here before the
// benchmark sees it.
func TestSimPacketPathAllocs(t *testing.T) {
	net := topology.MustNew(topology.Config{Seed: 1, Bandwidth: 600 * link.Kbps, RTTJitter: 0.25})
	workload.AddBulkFlows(net, 60, 50*sim.Millisecond)
	net.Run(50 * sim.Second)

	var before, after runtime.MemStats
	offered := net.QueueArrivals
	runtime.ReadMemStats(&before)
	net.Run(100 * sim.Second)
	runtime.ReadMemStats(&after)

	pkts := net.QueueArrivals - offered
	if pkts < 5000 {
		t.Fatalf("only %d packets offered in 50 simulated seconds", pkts)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	if perPkt > 0.3 {
		t.Fatalf("%.2f allocations per packet offered over %d packets, want <= 0.3", perPkt, pkts)
	}
	t.Logf("%.3f allocations per packet offered over %d packets", perPkt, pkts)
}

// TestHotpathTableMatchesClosure pins the table to the annotations:
// the set of roots the analyzer discovers must equal the set the table
// claims, so annotating a new hot path without a zero-alloc proof (or
// deleting one and leaving a dead row) fails here.
func TestHotpathTableMatchesClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	prog := analysis.NewProgram(pkgs)
	declared := make(map[string]bool)
	for _, r := range prog.Roots() {
		declared[r.Name()] = true
	}
	claimed := make(map[string]bool)
	for _, tc := range hotRootCases {
		for _, name := range tc.roots {
			if claimed[name] {
				t.Errorf("root %s claimed by two table rows", name)
			}
			claimed[name] = true
			if !declared[name] {
				t.Errorf("table row claims %s, but no //taq:hotpath declares it", name)
			}
		}
	}
	for name := range declared {
		if !claimed[name] {
			t.Errorf("root %s is annotated but has no zero-alloc table row", name)
		}
	}
}
