// Command taqmbox runs the real-time middlebox prototype: the same TAQ
// implementation that runs in the simulator, driven by wall-clock
// timers over an emulated constrained link (the paper's §5.4 testbed
// configuration), and reports fairness live.
//
// Example:
//
//	taqmbox -bw 600e3 -flows 40 -taq -duration 30 -speedup 10
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"taq/internal/core"
	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/sim"
	"taq/internal/topology"
)

func main() {
	var (
		bw       = flag.Float64("bw", 600e3, "emulated bottleneck bandwidth (bits/second)")
		flows    = flag.Int("flows", 40, "number of long-lived downloads")
		useTAQ   = flag.Bool("taq", false, "use the TAQ middlebox instead of DropTail")
		duration = flag.Float64("duration", 60, "virtual seconds to run")
		speedup  = flag.Float64("speedup", 10, "virtual-to-wall time ratio")
		seed     = flag.Int64("seed", 1, "random seed")
		httpAddr = flag.String("http", "", "serve live /metrics + pprof on this address (e.g. 127.0.0.1:6060)")
		events   = flag.String("events", "", "write the JSONL event trace to this file")

		metricsOut = flag.String("metrics-out", "", "write the final Prometheus-format metrics snapshot to this file")
	)
	flag.Parse()

	var rec *obs.Recorder
	var closeEvents func() error
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taqmbox:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		sink := obs.NewJSONLSink(w)
		sink.ClassName = func(c int8) string { return core.Class(c).String() }
		sink.StateName = func(s int8) string { return core.FlowState(s).String() }
		rec = obs.NewRecorder(sink, 0)
		closeEvents = func() error {
			if err := w.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}

	virtual := sim.FromSeconds(*duration)
	queue := topology.DropTail
	if *useTAQ {
		queue = topology.TAQ
	}
	tb := emu.NewTestbed(emu.TestbedConfig{
		Config: topology.Config{
			Seed:       *seed,
			Bandwidth:  link.Bps(*bw),
			Queue:      queue,
			SliceWidth: virtual / 4,
		},
		Speedup:  *speedup,
		HTTPAddr: *httpAddr,
	})
	net := tb.Net
	tb.Snapshot(func() {
		net.EnableObservability(rec)
		if *metricsOut != "" {
			net.EnableMetrics()
		}
	})
	if tb.HTTPErr != nil {
		fmt.Fprintln(os.Stderr, "taqmbox: http:", tb.HTTPErr)
		os.Exit(1)
	}
	if tb.HTTP != nil {
		fmt.Printf("live endpoint: http://%s/metrics (pprof under /debug/pprof/)\n", tb.HTTP.Addr())
	}
	for i := 0; i < *flows; i++ {
		tb.AddBulkFlow()
	}
	fmt.Printf("middlebox=%s bandwidth=%.0fbps flows=%d (%.0fx speedup, %.1fs wall)\n",
		queue, *bw, *flows, *speedup, *duration / *speedup)

	step := virtual / 4
	var prev core.Stats
	for i := 1; i <= 4; i++ {
		tb.RunFor(step)
		tb.Snapshot(func() {
			fmt.Printf("t=%4.0fs  shortJFI=%.3f  loss=%.3f  arrivals=%d\n",
				(sim.Time(i) * step).Seconds(), net.Slicer.MeanSliceJFI(0, i), net.LossRate(), net.QueueArrivals)
			if net.Middlebox != nil {
				cur := net.Middlebox.Stats()
				fmt.Printf("         interval: %s\n", cur.Delta(prev))
				prev = cur
			}
		})
	}
	tb.Stop()
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taqmbox:", err)
			os.Exit(1)
		}
		var snap *obs.MetricsSnapshot
		tb.Snapshot(func() { snap = net.Metrics.Snapshot() })
		if err := snap.WriteText(f); err != nil {
			fmt.Fprintln(os.Stderr, "taqmbox: metrics:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "taqmbox: metrics:", err)
			os.Exit(1)
		}
	}
	if closeEvents != nil {
		if err := closeEvents(); err != nil {
			fmt.Fprintln(os.Stderr, "taqmbox: events:", err)
			os.Exit(1)
		}
	}
}
