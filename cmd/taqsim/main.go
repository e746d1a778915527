// Command taqsim runs a single dumbbell scenario — N TCP flows through
// a bottleneck under a chosen queue discipline — and reports the
// fairness, loss, utilization and flow-evolution metrics the paper
// uses.
//
// Example:
//
//	taqsim -bw 600e3 -flows 120 -queue taq -duration 400
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/workload"
)

// newEventRecorder opens path and returns a streaming recorder writing
// JSONL events to it with human-readable class/state labels.
func newEventRecorder(path string) (*obs.Recorder, func() error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taqsim:", err)
		os.Exit(1)
	}
	bw := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(bw)
	sink.ClassName = func(c int8) string { return core.Class(c).String() }
	sink.StateName = func(s int8) string { return core.FlowState(s).String() }
	rec := obs.NewRecorder(sink, 0)
	return rec, func() error {
		if err := rec.Close(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	}
}

func main() {
	var (
		bw       = flag.Float64("bw", 600e3, "bottleneck bandwidth (bits/second)")
		flows    = flag.Int("flows", 60, "number of long-running flows")
		queue    = flag.String("queue", "droptail", "queue discipline: droptail|red|sfq|taq")
		duration = flag.Float64("duration", 400, "simulated seconds")
		slice    = flag.Float64("slice", 20, "fairness slice width (seconds)")
		rtt      = flag.Float64("rtt", 0.2, "propagation RTT (seconds)")
		jitter   = flag.Float64("jitter", 0.25, "per-flow RTT jitter fraction")
		buffer   = flag.Int("buffer", 0, "bottleneck buffer (packets, 0 = one RTT)")
		seed     = flag.Int64("seed", 1, "random seed")
		sack     = flag.Bool("sack", false, "use SACK recovery instead of NewReno")
		iw       = flag.Float64("iw", 2, "initial congestion window (segments)")

		events   = flag.String("events", "", "write the JSONL event trace to this file")
		gauges   = flag.String("gauges", "", "write the CSV gauge time series to this file")
		gaugeInt = flag.Float64("gauge-interval", 1, "gauge sampling cadence (simulated seconds)")

		metricsOut = flag.String("metrics-out", "", "write the final Prometheus-format metrics snapshot to this file")
		intervals  = flag.Int("intervals", 0, "print per-interval middlebox stats deltas this many times over the run")

		flightDir  = flag.String("flight-dir", "", "dump the event ring here on anomaly triggers (incompatible with -events)")
		flightRep  = flag.Float64("flight-rep", 50, "flight trigger: repetitive-timeout count")
		flightLoss = flag.Float64("flight-loss", 0.25, "flight trigger: loss-rate EWMA")
		flightP99  = flag.Float64("flight-p99", 0, "flight trigger: FCT p99 seconds (0 = off)")
	)
	flag.Parse()

	tcpCfg := tcp.DefaultConfig()
	tcpCfg.SACK = *sack
	tcpCfg.InitialCwnd = *iw
	net, err := topology.New(topology.Config{
		Seed:          *seed,
		Bandwidth:     link.Bps(*bw),
		PropRTT:       sim.FromSeconds(*rtt),
		RTTJitter:     *jitter,
		BufferPackets: *buffer,
		Queue:         topology.QueueKind(*queue),
		TCP:           tcpCfg,
		SliceWidth:    sim.FromSeconds(*slice),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "taqsim:", err)
		os.Exit(1)
	}
	if *events != "" {
		rec, closeEvents := newEventRecorder(*events)
		net.EnableObservability(rec)
		defer func() {
			if err := closeEvents(); err != nil {
				fmt.Fprintln(os.Stderr, "taqsim: events:", err)
				os.Exit(1)
			}
		}()
	}
	if *gauges != "" {
		f, err := os.Create(*gauges)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taqsim:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		net.EnableGauges(sim.FromSeconds(*gaugeInt), obs.NewCSVSeries(bw))
		defer func() {
			if err := net.Gauges.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "taqsim: gauges:", err)
				os.Exit(1)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "taqsim: gauges:", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	if *metricsOut != "" || *flightDir != "" {
		net.EnableMetrics()
	}
	var flight *obs.FlightRecorder
	if *flightDir != "" {
		if *events != "" {
			fmt.Fprintln(os.Stderr, "taqsim: -flight-dir needs the retained event ring and cannot be combined with -events streaming")
			os.Exit(1)
		}
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "taqsim:", err)
			os.Exit(1)
		}
		ring := obs.NewRecorder(nil, 0)
		net.EnableObservability(ring)
		dir := *flightDir
		flight = obs.NewFlightRecorder(net.Engine, ring, sim.Second, func(name string, seq int) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, fmt.Sprintf("flight-%03d-%s.jsonl", seq, name)))
		})
		flight.ClassName = func(c int8) string { return core.Class(c).String() }
		flight.StateName = func(s int8) string { return core.FlowState(s).String() }
		if mb := net.Middlebox; mb != nil {
			flight.Watch(obs.Trigger{Name: "rep_timeouts", Threshold: *flightRep,
				Value: func() float64 { return float64(mb.Stats().Transitions[core.StateExtendedSilence]) }})
			flight.Watch(obs.Trigger{Name: "loss_ewma", Threshold: *flightLoss, Value: mb.LossEWMA})
		}
		if *flightP99 > 0 {
			fct := net.FCT
			flight.Watch(obs.Trigger{Name: "fct_p99", Threshold: *flightP99,
				Value: func() float64 { return fct.Quantile(0.99).Seconds() }})
		}
		flight.Start()
	}

	workload.AddBulkFlows(net, *flows, 50*sim.Millisecond)

	// Per-interval middlebox stats via Stats.Delta — the same
	// cumulative-to-interval convention taqmbox prints.
	if *intervals > 0 && net.Middlebox != nil {
		step := sim.FromSeconds(*duration) / sim.Time(*intervals)
		prev := net.Middlebox.Stats()
		for i := 1; i <= *intervals; i++ {
			at := step * sim.Time(i)
			net.Engine.ScheduleAt(at, func() {
				cur := net.Middlebox.Stats()
				fmt.Printf("interval @%-6s : %s\n", at, cur.Delta(prev))
				prev = cur
			})
		}
	}

	net.Run(sim.FromSeconds(*duration))

	if flight != nil {
		flight.Stop()
		if flight.Err != nil {
			fmt.Fprintln(os.Stderr, "taqsim: flight:", flight.Err)
			os.Exit(1)
		}
		fmt.Printf("flight dumps     : %d\n", flight.Dumps)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taqsim:", err)
			os.Exit(1)
		}
		if err := net.Metrics.Snapshot().WriteText(f); err != nil {
			fmt.Fprintln(os.Stderr, "taqsim: metrics:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "taqsim: metrics:", err)
			os.Exit(1)
		}
	}

	slices := int(sim.FromSeconds(*duration) / net.Slicer.Width())
	to, rep := net.AggregateTimeouts()
	fmt.Printf("queue=%s bandwidth=%.0fbps flows=%d duration=%.0fs\n", *queue, *bw, *flows, *duration)
	fmt.Printf("fair share       : %.0f bps (%.2f pkts/RTT)\n",
		net.FairSharePerFlow(), net.FairSharePerFlow()**rtt/8/float64(tcpCfg.MSS))
	fmt.Printf("short-term JFI   : %.3f (%.0fs slices)\n", net.Slicer.MeanSliceJFI(1, slices), *slice)
	fmt.Printf("long-term JFI    : %.3f\n", net.Slicer.TotalJFI(1, slices))
	fmt.Printf("utilization      : %.3f\n", net.Utilization())
	fmt.Printf("queue loss rate  : %.3f\n", net.LossRate())
	fmt.Printf("timeouts         : %d (%d repetitive)\n", to, rep)
	ev := net.Slicer.Evolution(1, slices)
	fmt.Printf("flow evolution   : maintained=%.1f stalled=%.1f (mean/slice)\n",
		ev.MeanMaintained(), ev.MeanStalled())
	if net.Middlebox != nil {
		fmt.Printf("middlebox        : lossRate=%.3f activeFlows=%d\n",
			net.Middlebox.LossRate(), net.Middlebox.ActiveFlows())
		fmt.Printf("middlebox stats  : %s\n", net.Middlebox.Stats())
		fmt.Printf("state census     : %v\n", net.Middlebox.StateCensus())
	}
}
