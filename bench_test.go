// Benchmarks: one per table/figure of the paper's evaluation (see the
// experiment index in DESIGN.md §3). Each benchmark iteration runs the
// corresponding experiment at a reduced scale and reports, via custom
// metrics, the headline quantity the paper reads off that figure —
// so `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature. cmd/taqbench runs the same experiments at any scale.
package taq_test

import (
	"testing"

	"taq/experiments"
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/topology"
)

// benchScale keeps each iteration around a second.
const benchScale experiments.Scale = 0.05

func BenchmarkFig01DownloadScatter(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunDownloadScatter(benchScale, int64(i+1))
		spread = r.MaxSpreadOrders()
	}
	b.ReportMetric(spread, "spread-orders")
}

func BenchmarkFig02DroptailFairness(b *testing.B) {
	cfg := experiments.FairnessConfig{
		Queue:      topology.DropTail,
		Bandwidths: []link.Bps{200 * link.Kbps, 1000 * link.Kbps},
		FairShares: []float64{2500, 10000, 50000},
	}
	var jfi float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := experiments.RunFairness(cfg, benchScale)
		jfi = experiments.MeanShortJFI(r.PointsBelow(30000))
	}
	b.ReportMetric(jfi, "subpacket-shortJFI")
}

func BenchmarkFig03BufferTradeoff(b *testing.B) {
	var needed float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunBufferTradeoff(benchScale, int64(i+1))
		needed = r.RequiredBuffer(0.8)[1.25]
	}
	b.ReportMetric(needed, "RTTs-for-JFI0.8@1.25pkt")
}

func BenchmarkHangTimes(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunHangTimes(topology.DropTail, benchScale, int64(i+1))
		frac = r.Points[0].FracOver20s
	}
	b.ReportMetric(frac, "200users-frac>20s")
}

func BenchmarkRedSfqEquivalence(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunRedSfqEquivalence(benchScale, int64(i+1))
		worst = 0
		for _, p := range r.Points {
			if p.ShortJFI > worst {
				worst = p.ShortJFI
			}
		}
	}
	b.ReportMetric(worst, "best-baseline-JFI")
}

func BenchmarkFig06ModelValidation(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunModelValidation(benchScale, int64(i+1))
		mae = r.WorstError(0.05)
	}
	b.ReportMetric(mae, "worst-MAE")
}

func BenchmarkFig08TAQFairness(b *testing.B) {
	cfg := experiments.FairnessConfig{
		Queue:      topology.TAQ,
		Bandwidths: []link.Bps{200 * link.Kbps, 1000 * link.Kbps},
		FairShares: []float64{2500, 10000, 50000},
	}
	var jfi float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := experiments.RunFairness(cfg, benchScale)
		jfi = experiments.MeanShortJFI(r.PointsBelow(30000))
	}
	b.ReportMetric(jfi, "subpacket-shortJFI")
}

func BenchmarkFig09FlowEvolution(b *testing.B) {
	var stalled float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFlowEvolution(topology.TAQ, benchScale, int64(i+1))
		stalled = r.MeanStalled
	}
	b.ReportMetric(stalled, "taq-mean-stalled")
}

func BenchmarkFig10ShortFlows(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunShortFlows(topology.TAQ, benchScale, int64(i+1))
		corr = r.Correlation()
	}
	b.ReportMetric(corr, "size-time-corr")
}

func BenchmarkFig11TestbedFairness(b *testing.B) {
	// Real time: each iteration costs ~2 wall seconds regardless of
	// simulated load (wall-clock engine).
	var taqJFI float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTestbedFairness(experiments.TestbedOptions{
			Speedup:         40,
			VirtualDuration: 20 * sim.Second,
			SliceWidth:      5 * sim.Second,
			FlowCounts:      []int{40},
			Seed:            int64(i + 1),
		})
		for _, p := range r.Points {
			if p.UseTAQ && p.Bandwidth == 600*link.Kbps {
				taqJFI = p.ShortJFI
			}
		}
	}
	b.ReportMetric(taqJFI, "taq-600k-shortJFI")
}

func BenchmarkFig12AdmissionCDF(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAdmissionWeb(benchScale, int64(i+1))
		speedup = r.SmallObjectSpeedup()
	}
	b.ReportMetric(speedup, "small-obj-median-speedup")
}

func BenchmarkModelStationary(b *testing.B) {
	var tp float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunModelTables()
		if err != nil {
			b.Fatal(err)
		}
		tp = m.TippingPoint
	}
	b.ReportMetric(tp, "tipping-point-p")
}

func BenchmarkTFRCComparison(b *testing.B) {
	var worstTFRC float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTFRCComparison(benchScale, int64(i+1))
		worstTFRC = 1
		for _, p := range r.Points {
			if p.Transport == "tfrc" && p.ShortJFI < worstTFRC {
				worstTFRC = p.ShortJFI
			}
		}
	}
	b.ReportMetric(worstTFRC, "tfrc-worst-JFI")
}

func BenchmarkAblation(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAblation(benchScale, int64(i+1))
		full, _ := r.Point("taq-full")
		dt, _ := r.Point("droptail")
		gap = full.ShortJFI - dt.ShortJFI
	}
	b.ReportMetric(gap, "full-vs-droptail-JFI-gap")
}

// Micro-benchmarks: the §5.4 claim that "even on realistically basic
// hardware TAQ is able to easily handle these flow rates" rests on the
// middlebox's per-packet cost. These measure raw enqueue+dequeue
// throughput of TAQ against DropTail.

func benchmarkDiscipline(b *testing.B, disc queue.Discipline) {
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Flow: packet.FlowID(i % 64), Kind: packet.Data,
			Seq: i, Size: 500,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disc.Enqueue(pkts[i%len(pkts)])
		if i%2 == 0 {
			disc.Dequeue()
		}
	}
}

func BenchmarkDisciplineDropTail(b *testing.B) {
	benchmarkDiscipline(b, queue.NewDropTail(64))
}

func BenchmarkDisciplineSFQ(b *testing.B) {
	benchmarkDiscipline(b, queue.NewSFQ(64, 64))
}

func BenchmarkDisciplineRED(b *testing.B) {
	e := sim.NewEngine(1)
	benchmarkDiscipline(b, queue.NewRED(queue.REDConfig{Capacity: 64, MeanPktTime: sim.Millisecond}, e.Now, e.Rand()))
}

func BenchmarkDisciplineTAQ(b *testing.B) {
	e := sim.NewEngine(1)
	mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
	benchmarkDiscipline(b, mb)
}

// BenchmarkDisciplineTAQObsOn is the tracing-overhead companion of
// BenchmarkDisciplineTAQ: the same workload with a flight recorder
// attached, so the delta between the two is the per-packet cost of the
// obs layer when enabled (EXPERIMENTS.md quotes both).
func BenchmarkDisciplineTAQObsOn(b *testing.B) {
	e := sim.NewEngine(1)
	mb := core.NewSharded(e, core.DefaultConfig(1000*link.Kbps, 64), 1)
	mb.SetRecorder(obs.NewRecorder(nil, obs.DefaultRingSize))
	benchmarkDiscipline(b, mb)
}

// The "zero overhead when off" proof at the middlebox level lives in
// hotpath_alloc_test.go now, table-driven over every declared
// //taq:hotpath root.

func BenchmarkInitialWindow(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunInitialWindow(benchScale, int64(i+1))
		dt10, _ := r.Point(topology.DropTail, "cubic-iw10")
		taq10, _ := r.Point(topology.TAQ, "cubic-iw10")
		penalty = dt10.TimeoutFrac - taq10.TimeoutFrac
	}
	b.ReportMetric(penalty, "dt-minus-taq-timeout-frac")
}

// BenchmarkTrackerScaleSweep runs the tracker-scale churn experiment:
// flow populations far beyond the testbed driven through creation,
// silence detection, expiry eviction and record recycling. The ns/op
// trend across repo history tracks the cost of the control loop at
// scale (the per-operation breakdown lives in internal/core's
// BenchmarkTrackerScan and BenchmarkGaugeSample).
func BenchmarkTrackerScaleSweep(b *testing.B) {
	var tracked float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTrackerScale(benchScale, int64(i+1))
		tracked = float64(r.Points[len(r.Points)-1].TrackedEnd)
	}
	b.ReportMetric(tracked, "tracked-end")
}

func BenchmarkSubPacketTCP(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunSubPacketTCP(benchScale, int64(i+1))
		reno, _ := r.Point(topology.DropTail, "newreno")
		sub, _ := r.Point(topology.DropTail, "subpacket")
		gain = sub.ShortJFI - reno.ShortJFI
	}
	b.ReportMetric(gain, "subpacket-minus-newreno-JFI")
}
