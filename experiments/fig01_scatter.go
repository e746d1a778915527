package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// bucket is Fig 1's point: download-time statistics of one log-size
// bucket of objects.
type bucket = metrics.BucketStat

// downloadScatter reproduces Fig 1: a 2 Mbps access link shared by
// ~220 clients replaying a (synthetic) 2-hour Squid log; each object
// download is timed and bucketed by size. The paper's observation: the
// per-bucket spread exceeds two orders of magnitude across the web
// object size range. Scale shrinks the replay window. It returns the
// per-bucket sweep and how many objects completed.
func downloadScatter(scale Scale, seed int64) (sweep[bucket], int) {
	gen := trace.DefaultGenConfig()
	gen.Seed = seed
	gen.Duration = scale.duration(gen.Duration, 120*sim.Second)
	// Cap replayable object size to keep scaled runs finite: the
	// biggest objects cannot finish within a shrunken window anyway.
	if scale < 1 {
		gen.MaxSize = 2 << 20
	}
	recs := trace.Generate(gen)

	net := topology.MustNew(topology.Config{
		Seed:      seed,
		Bandwidth: 2000 * link.Kbps,
		Queue:     topology.DropTail,
		RTTJitter: 0.25,
	})
	sessions := workload.Replay(net, recs, 4, workload.ReplayTimed)
	// Let stragglers finish past the log window.
	net.Run(gen.Duration + 60*sim.Second)

	requested, completed := 0, 0
	for _, s := range sessions {
		for _, r := range s.Results {
			requested++
			if r.Done {
				completed++
			}
		}
	}
	return sweep[bucket]{
		title: fmt.Sprintf("objects: %d requested, %d completed, queue loss %.3f\n",
			requested, completed, net.LossRate()),
		points: metrics.BucketStats(workload.CollectObjectSamples(sessions), 1),
		cols: []column[bucket]{
			{"size bucket", func(b bucket) string { return fmt.Sprintf("%.0fB-%.0fB", b.Lo, b.Hi) }},
			{"n", func(b bucket) string { return dec(b.N) }},
			{"min(s)", func(b bucket) string { return f2(b.Min) }},
			{"p10(s)", func(b bucket) string { return f2(b.P10) }},
			{"avg(s)", func(b bucket) string { return f2(b.Avg) }},
			{"p90(s)", func(b bucket) string { return f2(b.P90) }},
			{"max(s)", func(b bucket) string { return f2(b.Max) }},
			{"spread(oom)", func(b bucket) string { return f1(b.SpreadOrders()) }},
		},
	}, completed
}

// maxSpreadOrders returns the widest per-bucket min-to-max spread in
// orders of magnitude (the paper reads >2 off Fig 1).
func maxSpreadOrders(buckets []bucket) float64 {
	m := 0.0
	for _, b := range buckets {
		if b.N >= 5 && b.SpreadOrders() > m {
			m = b.SpreadOrders()
		}
	}
	return m
}

func fig1(env Env) Report {
	s, _ := downloadScatter(env.Scale, env.Seed)
	return Report{s.render(env.CSV), map[string]float64{"max_spread_orders": maxSpreadOrders(s.points)}}
}
