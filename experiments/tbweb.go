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

// TestbedWebPoint is one real-time web replay (§5.5 on the prototype
// substrate): per-object download-time statistics for one middlebox.
type TestbedWebPoint struct {
	UseTAQ    bool
	MedianS   float64
	P90S      float64
	WorstS    float64
	Completed float64
}

// TestbedWebResult compares DropTail and TAQ on the testbed.
type TestbedWebResult struct {
	Points []TestbedWebPoint
}

// TestbedWebOptions tunes the wall-clock web replay.
type TestbedWebOptions struct {
	Speedup         float64
	Bandwidth       link.Bps
	Clients         int
	ObjectsPerHost  int
	VirtualDuration sim.Time
	Seed            int64
}

// RunTestbedWeb replays a small web workload through the real-time
// middlebox (the paper's §5.4–5.5 testbed methodology: client scripts
// opening up to four connections against a server behind the
// middlebox). Each client fetches a queue of small objects ASAP.
func RunTestbedWeb(opt TestbedWebOptions) TestbedWebResult {
	if opt.Speedup == 0 {
		opt.Speedup = 50
	}
	if opt.Bandwidth == 0 {
		opt.Bandwidth = 600 * link.Kbps
	}
	if opt.Clients == 0 {
		opt.Clients = 6
	}
	if opt.ObjectsPerHost == 0 {
		opt.ObjectsPerHost = 8
	}
	if opt.VirtualDuration == 0 {
		opt.VirtualDuration = 120 * sim.Second
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	// One request list shared by both runs.
	var recs []trace.Record
	for c := 0; c < opt.Clients; c++ {
		for i := 0; i < opt.ObjectsPerHost; i++ {
			size := 10*1024 + (i%5)*2048
			recs = append(recs, trace.Record{Client: c, Size: size})
		}
	}

	var res TestbedWebResult
	for _, useTAQ := range []bool{false, true} {
		tb := emu.NewTestbed(emu.TestbedConfig{
			Config:  topology.Config{Seed: opt.Seed, Bandwidth: opt.Bandwidth, Queue: testbedQueue(useTAQ)},
			Speedup: opt.Speedup,
		})
		var sessions map[int]*workload.Session
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
		pt := TestbedWebPoint{UseTAQ: useTAQ}
		if total > 0 {
			pt.Completed = float64(done) / float64(total)
		}
		if times.N() > 0 {
			pt.MedianS = times.Median()
			pt.P90S = times.Percentile(90)
			pt.WorstS = times.Max()
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Table renders the comparison.
func (r TestbedWebResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		q := "DT"
		if p.UseTAQ {
			q = "TAQ"
		}
		rows = append(rows, []string{
			q, f2(p.MedianS), f2(p.P90S), f2(p.WorstS), f2(p.Completed),
		})
	}
	return table([]string{"queue", "median(s)", "p90(s)", "worst(s)", "completed"}, rows)
}

// Point returns the DT or TAQ measurement.
func (r TestbedWebResult) Point(useTAQ bool) (TestbedWebPoint, bool) {
	for _, p := range r.Points {
		if p.UseTAQ == useTAQ {
			return p, true
		}
	}
	return TestbedWebPoint{}, false
}
