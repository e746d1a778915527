package experiments

import (
	"fmt"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// AdmissionCDFs holds download-time CDFs for the two object-size
// buckets Fig 12 plots, for one queue configuration.
type AdmissionCDFs struct {
	Label       string
	SmallCDF    *metrics.CDF // 10–20 KB objects
	LargeCDF    *metrics.CDF // 100–110 KB objects
	Completed   float64      // fraction of requested objects finished
	PoolsWaited uint64       // pools that waited for admission (TAQ only)
}

// AdmissionResult is the Fig 12 comparison: DropTail vs TAQ with
// admission control.
type AdmissionResult struct {
	Droptail, TAQ AdmissionCDFs
}

// RunAdmissionWeb reproduces Fig 12: clients replay a peak-load access
// log over a 1 Mbps bottleneck, each with up to four connections,
// requesting objects as soon as possible (simulating request
// dependencies); non-admitted flows retry until admitted, and their
// waiting time counts toward the download time. TAQ with admission
// control is compared against DropTail via download-time CDFs of
// 10–20 KB and 100–110 KB objects.
func RunAdmissionWeb(scale Scale, seed int64) AdmissionResult {
	if seed == 0 {
		seed = 1
	}
	// Synthesize the peak-load log: many clients, sizes constrained
	// to the two buckets of interest plus filler traffic.
	// The §5.5 testbed replays the whole peak log through a small
	// number of client machines, each keeping up to four connections
	// busy from a deep request backlog — so the regime comes from the
	// backlog pressure (ASAP requests), not from thousands of client
	// machines. Admission control engages during the transient bursts.
	gen := trace.DefaultGenConfig()
	gen.Seed = seed
	gen.Clients = scale.count(16, 8)
	gen.Duration = scale.duration(2*3600*sim.Second, 600*sim.Second)
	gen.RequestsPerClientPerMin = 12
	gen.MaxSize = 200 * 1024
	recs := trace.Generate(gen)
	// Guarantee sample mass in the two Fig 12 buckets by pinning a
	// fraction of requests to them.
	for i := range recs {
		switch i % 4 {
		case 0:
			recs[i].Size = 10*1024 + (i%10)*1024 // 10–20 KB
		case 1:
			recs[i].Size = 100*1024 + (i%10)*1024 // 100–110 KB
		}
	}

	run := func(qk topology.QueueKind, label string, withAC bool) AdmissionCDFs {
		tcpCfg := tcp.DefaultConfig()
		tcpCfg.MaxSynRetries = -1             // clients retry until admitted (Fig 12)
		tcpCfg.MaxSynTimeout = 4 * sim.Second // …"constantly", per §4.3
		cfg := topology.Config{
			Seed:      seed,
			Bandwidth: 1000 * link.Kbps,
			Queue:     qk,
			RTTJitter: 0.25,
			TCP:       tcpCfg,
		}
		if withAC {
			taqCfg := core.DefaultConfig(cfg.Bandwidth, 0)
			taqCfg.AdmissionControl = true
			cfg.TAQ = &taqCfg
		}
		net := topology.MustNew(cfg)
		sessions := workload.Replay(net, recs, 4, workload.ReplayASAP)
		// Drain long enough that stragglers (including pools that
		// waited for admission) finish; unfinished objects would
		// censor the CDFs.
		net.Run(gen.Duration + scale.duration(1800*sim.Second, 1200*sim.Second))
		out := AdmissionCDFs{
			Label:     label,
			SmallCDF:  workload.DownloadCDF(sessions, 10*1024, 20*1024),
			LargeCDF:  workload.DownloadCDF(sessions, 100*1024, 110*1024),
			Completed: workload.CompletedFraction(sessions),
		}
		if net.Middlebox != nil {
			out.PoolsWaited = net.Middlebox.Stats().PoolsWaited
		}
		return out
	}

	return AdmissionResult{
		Droptail: run(topology.DropTail, "DropTail", false),
		TAQ:      run(topology.TAQ, "TAQ+AC", true),
	}
}

// Table renders median/p90/worst download times per bucket.
func (r AdmissionResult) Table() string {
	row := func(c AdmissionCDFs, bucket string, cdf *metrics.CDF) []string {
		return []string{
			c.Label, bucket,
			fmt.Sprintf("%d", cdf.N()),
			f2(cdf.Median()), f2(cdf.Percentile(90)), f2(cdf.Max()),
			f2(c.Completed),
		}
	}
	rows := [][]string{
		row(r.Droptail, "10-20KB", r.Droptail.SmallCDF),
		row(r.TAQ, "10-20KB", r.TAQ.SmallCDF),
		row(r.Droptail, "100-110KB", r.Droptail.LargeCDF),
		row(r.TAQ, "100-110KB", r.TAQ.LargeCDF),
	}
	return table([]string{"queue", "objects", "n", "median(s)", "p90(s)", "worst(s)", "completed"}, rows) +
		fmt.Sprintf("pools that waited for admission: %d\n", r.TAQ.PoolsWaited)
}

// SmallObjectSpeedup returns DropTail-median / TAQ-median for the
// 10–20 KB bucket (paper: ≈5×).
func (r AdmissionResult) SmallObjectSpeedup() float64 {
	t := r.TAQ.SmallCDF.Median()
	if t <= 0 {
		return 0
	}
	return r.Droptail.SmallCDF.Median() / t
}

// LargeObjectSpeedup returns the same ratio for 100–110 KB objects
// (paper: ≈2×). In this reproduction large-object medians do not
// improve — TAQ's strict Level-3 deprioritization of above-fair-share
// flows trades large-object medians for their (much better) tails;
// see WorstCaseSpeedup and EXPERIMENTS.md.
func (r AdmissionResult) LargeObjectSpeedup() float64 {
	t := r.TAQ.LargeCDF.Median()
	if t <= 0 {
		return 0
	}
	return r.Droptail.LargeCDF.Median() / t
}

// WorstCaseSpeedup returns the DropTail/TAQ ratio of worst-case
// download times for the given bucket CDFs — the predictability axis
// ("the overall variance in the download times [is] significantly
// reduced across the board", §5.5).
func WorstCaseSpeedup(dt, taq *metrics.CDF) float64 {
	t := taq.Max()
	if !(t > 0) {
		return 0
	}
	return dt.Max() / t
}

// P90Speedup returns the DropTail/TAQ ratio of 90th-percentile
// download times for the given bucket CDFs.
func P90Speedup(dt, taq *metrics.CDF) float64 {
	t := taq.Percentile(90)
	if !(t > 0) {
		return 0
	}
	return dt.Percentile(90) / t
}
