package experiments

import (
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// testbedPoint is one prototype run of Fig 11: the real-time
// middlebox serving long-lived flows at a given contention level.
type testbedPoint struct {
	UseTAQ       bool
	Bandwidth    link.Bps
	Flows        int
	FairShareBps float64
	ShortJFI     float64
	LossRate     float64
}

// testbedOptions tunes the real-time runs (they consume wall time!).
type testbedOptions struct {
	// Speedup compresses wall time; keep virtualPktRate/Speedup well
	// under the OS timer capacity (~50k/s).
	Speedup         float64
	VirtualDuration sim.Time // per run
	SliceWidth      sim.Time // for the short-term JFI
	FlowCounts      []int    // per bandwidth
	Seed            int64
}

// testbedFairness reproduces Fig 11: the same TAQ implementation,
// running under the wall-clock engine (the prototype substrate), is
// compared against DropTail at 600 Kbps and 1 Mbps. The paper's
// reading: even on basic hardware TAQ handles these packet rates and
// improves the short-term Jain index.
func testbedFairness(opt testbedOptions) sweep[testbedPoint] {
	s := sweep[testbedPoint]{cols: []column[testbedPoint]{
		{"queue", func(p testbedPoint) string { return testbedLabel(p.UseTAQ) }},
		{"bandwidth", func(p testbedPoint) string { return kbps(p.Bandwidth) }},
		{"flows", func(p testbedPoint) string { return dec(p.Flows) }},
		{"fairshare(bps)", func(p testbedPoint) string { return f0(p.FairShareBps) }},
		{"shortJFI", func(p testbedPoint) string { return f3(p.ShortJFI) }},
		{"loss", func(p testbedPoint) string { return f3(p.LossRate) }},
	}}
	for _, bw := range []link.Bps{600 * link.Kbps, 1000 * link.Kbps} {
		for _, n := range opt.FlowCounts {
			for _, useTAQ := range []bool{false, true} {
				s.points = append(s.points, runTestbedPoint(bw, n, useTAQ, opt))
			}
		}
	}
	return s
}

func runTestbedPoint(bw link.Bps, n int, useTAQ bool, opt testbedOptions) testbedPoint {
	tb := emu.NewTestbed(emu.TestbedConfig{
		Config: topology.Config{
			Seed:       opt.Seed,
			Bandwidth:  bw,
			Queue:      testbedQueue(useTAQ),
			SliceWidth: opt.SliceWidth,
		},
		Speedup: opt.Speedup,
	})
	for i := 0; i < n; i++ {
		tb.AddBulkFlow()
	}
	tb.RunFor(opt.VirtualDuration)
	tb.Stop()
	pt := testbedPoint{
		UseTAQ:       useTAQ,
		Bandwidth:    bw,
		Flows:        n,
		FairShareBps: float64(bw) / float64(n),
	}
	tb.Snapshot(func() {
		slices := int(opt.VirtualDuration / opt.SliceWidth)
		pt.ShortJFI = tb.Net.Slicer.MeanSliceJFI(1, slices)
		pt.LossRate = tb.Net.LossRate()
	})
	return pt
}

// testbedQueue is the prototype comparison's discipline: the TAQ
// middlebox, or the DropTail it replaces; testbedLabel is its name in
// the tables.
func testbedQueue(useTAQ bool) topology.QueueKind {
	if useTAQ {
		return topology.TAQ
	}
	return topology.DropTail
}

func testbedLabel(useTAQ bool) string {
	if useTAQ {
		return "TAQ"
	}
	return "DT"
}

func fig11(env Env) Report {
	const sliceWidth = 10 * sim.Second
	s := testbedFairness(testbedOptions{
		Speedup: 40,
		// At least two slices: the short-term JFI skips the first, the
		// start-up transient, so one slice would leave nothing to read.
		VirtualDuration: env.Scale.duration(240*sim.Second, 2*sliceWidth),
		SliceWidth:      sliceWidth,
		FlowCounts:      []int{30, 60},
		Seed:            env.Seed,
	})
	return Report{s.render(env.CSV), nil}
}
