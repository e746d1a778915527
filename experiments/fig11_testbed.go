package experiments

import (
	"fmt"

	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// TestbedPoint is one prototype run of Fig 11: the real-time
// middlebox serving long-lived flows at a given contention level.
type TestbedPoint struct {
	UseTAQ       bool
	Bandwidth    link.Bps
	Flows        int
	FairShareBps float64
	ShortJFI     float64
	LossRate     float64
}

// TestbedResult is the Fig 11 sweep.
type TestbedResult struct {
	Points []TestbedPoint
}

// TestbedOptions tunes the real-time runs (they consume wall time!).
type TestbedOptions struct {
	// Speedup compresses wall time; keep virtualPktRate/Speedup well
	// under the OS timer capacity (~50k/s).
	Speedup float64
	// VirtualDuration per run.
	VirtualDuration sim.Time
	// SliceWidth for the short-term JFI.
	SliceWidth sim.Time
	// FlowCounts per bandwidth; zero → defaults.
	FlowCounts []int
	Seed       int64
}

// RunTestbedFairness reproduces Fig 11: the same TAQ implementation,
// running under the wall-clock engine (the prototype substrate), is
// compared against DropTail at 600 Kbps and 1 Mbps. The paper's
// reading: even on basic hardware TAQ handles these packet rates and
// improves the short-term Jain index.
func RunTestbedFairness(opt TestbedOptions) TestbedResult {
	if opt.Speedup == 0 {
		opt.Speedup = 40
	}
	if opt.VirtualDuration == 0 {
		opt.VirtualDuration = 60 * sim.Second
	}
	if opt.SliceWidth == 0 {
		opt.SliceWidth = 10 * sim.Second
	}
	if opt.FlowCounts == nil {
		opt.FlowCounts = []int{30, 60}
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var res TestbedResult
	for _, bw := range []link.Bps{600 * link.Kbps, 1000 * link.Kbps} {
		for _, n := range opt.FlowCounts {
			for _, useTAQ := range []bool{false, true} {
				res.Points = append(res.Points, testbedPoint(bw, n, useTAQ, opt))
			}
		}
	}
	return res
}

func testbedPoint(bw link.Bps, n int, useTAQ bool, opt TestbedOptions) TestbedPoint {
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
	pt := TestbedPoint{
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
// middlebox, or the DropTail it replaces.
func testbedQueue(useTAQ bool) topology.QueueKind {
	if useTAQ {
		return topology.TAQ
	}
	return topology.DropTail
}

// Table renders the testbed comparison.
func (r TestbedResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		q := "DT"
		if p.UseTAQ {
			q = "TAQ"
		}
		rows = append(rows, []string{
			q,
			fmt.Sprintf("%.0fKbps", float64(p.Bandwidth)/1e3),
			fmt.Sprintf("%d", p.Flows),
			fmt.Sprintf("%.0f", p.FairShareBps),
			f3(p.ShortJFI),
			f3(p.LossRate),
		})
	}
	return table([]string{"queue", "bandwidth", "flows", "fairshare(bps)", "shortJFI", "loss"}, rows)
}

// Compare returns, for each (bandwidth, flows) pair, the TAQ-minus-DT
// short-term JFI difference.
func (r TestbedResult) Compare() map[string]float64 {
	dt := map[string]float64{}
	taq := map[string]float64{}
	for _, p := range r.Points {
		key := fmt.Sprintf("%.0f/%d", float64(p.Bandwidth), p.Flows)
		if p.UseTAQ {
			taq[key] = p.ShortJFI
		} else {
			dt[key] = p.ShortJFI
		}
	}
	out := map[string]float64{}
	for k, v := range taq {
		out[k] = v - dt[k]
	}
	return out
}
