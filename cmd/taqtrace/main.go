// Command taqtrace generates, inspects and windows access logs in the
// "seconds client bytes" text format of the trace package. The
// trace-driven experiments (Figs 1 and 12) generate the same records
// in process and read no file; this tool writes them out, so a
// workload can be looked at by hand, and summarizes or cuts a log in
// that format, such as a real proxy log converted to it.
//
// Examples:
//
//	taqtrace -gen -clients 221 -hours 2 > peak.log
//	taqtrace -stat < peak.log
//	taqtrace -from 600 -to 1200 < peak.log > window.log
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"taq/internal/sim"
	"taq/internal/trace"
)

func main() {
	var (
		gen     = flag.Bool("gen", false, "generate a synthetic log to stdout")
		stat    = flag.Bool("stat", false, "summarize a log from stdin")
		clients = flag.Int("clients", 221, "gen: number of clients")
		hours   = flag.Float64("hours", 2, "gen: log duration in hours")
		rate    = flag.Float64("rate", 1.5, "gen: requests per client per minute")
		seed    = flag.Int64("seed", 1, "gen: random seed")
		from    = flag.Float64("from", -1, "window: start seconds (stdin→stdout)")
		to      = flag.Float64("to", math.MaxFloat64, "window: end seconds")
	)
	flag.Parse()

	switch {
	case *gen:
		cfg := trace.DefaultGenConfig()
		cfg.Seed = *seed
		cfg.Clients = *clients
		cfg.Duration = sim.FromSeconds(*hours * 3600)
		cfg.RequestsPerClientPerMin = *rate
		if err := trace.Write(os.Stdout, trace.Generate(cfg)); err != nil {
			fail(err)
		}
	case *stat:
		recs, err := trace.Parse(os.Stdin)
		if err != nil {
			fail(err)
		}
		summarize(recs)
	case *from >= 0:
		recs, err := trace.Parse(os.Stdin)
		if err != nil {
			fail(err)
		}
		out := trace.Window(recs, sim.FromSeconds(*from), sim.FromSeconds(*to))
		if err := trace.Write(os.Stdout, out); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func summarize(recs []trace.Record) {
	if len(recs) == 0 {
		fmt.Println("empty log")
		return
	}
	total := trace.TotalBytes(recs)
	minS, maxS := recs[0].Size, recs[0].Size
	var last sim.Time
	for _, r := range recs {
		if r.Size < minS {
			minS = r.Size
		}
		if r.Size > maxS {
			maxS = r.Size
		}
		if r.Time > last {
			last = r.Time
		}
	}
	fmt.Printf("records : %d\n", len(recs))
	fmt.Printf("clients : %d\n", trace.Clients(recs))
	fmt.Printf("span    : %.0f seconds\n", last.Seconds())
	fmt.Printf("volume  : %.2f GB\n", float64(total)/(1<<30))
	fmt.Printf("sizes   : %d B .. %d B (mean %.0f B)\n", minS, maxS, float64(total)/float64(len(recs)))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "taqtrace:", err)
	os.Exit(1)
}
