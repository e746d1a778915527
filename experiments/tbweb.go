package experiments

import (
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// testbedWebPoint is one real-time web replay (§5.5 on the prototype
// substrate): per-object download-time statistics for one middlebox.
type testbedWebPoint struct {
	UseTAQ    bool
	MedianS   float64
	P90S      float64
	WorstS    float64
	Completed float64
}

// testbedWebOptions tunes the wall-clock web replay.
type testbedWebOptions struct {
	Speedup         float64
	Clients         int
	ObjectsPerHost  int
	VirtualDuration sim.Time
	Seed            int64
}

// testbedWebReplay replays a small web workload through the real-time
// middlebox at 600 Kbps (the paper's §5.4–5.5 testbed methodology:
// client scripts opening up to four connections against a server
// behind the middlebox). Each client fetches a queue of small objects
// ASAP.
func testbedWebReplay(opt testbedWebOptions) sweep[testbedWebPoint] {
	// One request list shared by both runs.
	var recs []trace.Record
	for c := 0; c < opt.Clients; c++ {
		for i := 0; i < opt.ObjectsPerHost; i++ {
			size := 10*1024 + (i%5)*2048
			recs = append(recs, trace.Record{Client: c, Size: size})
		}
	}

	s := sweep[testbedWebPoint]{cols: []column[testbedWebPoint]{
		{"queue", func(p testbedWebPoint) string { return testbedLabel(p.UseTAQ) }},
		{"median(s)", func(p testbedWebPoint) string { return f2(p.MedianS) }},
		{"p90(s)", func(p testbedWebPoint) string { return f2(p.P90S) }},
		{"worst(s)", func(p testbedWebPoint) string { return f2(p.WorstS) }},
		{"completed", func(p testbedWebPoint) string { return f2(p.Completed) }},
	}}
	for _, useTAQ := range []bool{false, true} {
		tb := emu.NewTestbed(emu.TestbedConfig{
			Config:  topology.Config{Seed: opt.Seed, Bandwidth: 600 * link.Kbps, Queue: testbedQueue(useTAQ)},
			Speedup: opt.Speedup,
		})
		var sessions []*workload.Session
		tb.Snapshot(func() {
			sessions = workload.Replay(tb.Net, recs, 4, workload.ReplayASAP)
		})
		tb.RunFor(opt.VirtualDuration)
		tb.Stop()
		var times metrics.CDF
		total, done := 0, 0
		tb.Snapshot(func() {
			for _, s := range sessions {
				for _, r := range s.Results {
					total++
					if r.Done {
						done++
						times.Add(r.DownloadTime().Seconds())
					}
				}
			}
		})
		pt := testbedWebPoint{UseTAQ: useTAQ}
		if total > 0 {
			pt.Completed = float64(done) / float64(total)
		}
		if times.N() > 0 {
			pt.MedianS = times.Median()
			pt.P90S = times.Percentile(90)
			pt.WorstS = times.Max()
		}
		s.points = append(s.points, pt)
	}
	return s
}

func testbedWeb(env Env) Report {
	s := testbedWebReplay(testbedWebOptions{
		Speedup:         30,
		Clients:         6,
		ObjectsPerHost:  8,
		VirtualDuration: env.Scale.duration(600*sim.Second, 0),
		Seed:            env.Seed,
	})
	return Report{s.render(env.CSV), nil}
}
