// Command taqbench runs the paper's evaluation suite — the rows of
// experiments.All, one per table/figure (see DESIGN.md §3) — at a
// chosen scale and prints the same rows/series the paper reports.
//
// Sweep-shaped experiments fan their points out over a worker pool
// (-parallel, default GOMAXPROCS); results are collected by index, so
// stdout is byte-identical whatever the worker count. Timing lines go
// to stderr for the same reason. -json emits a machine-readable report
// (per-experiment output and headline metrics) that is, wall-clock
// rows aside, a pure function of -scale and -seed.
//
// Example:
//
//	taqbench -experiment fig2,fig8 -scale 0.3
//	taqbench -experiment all -scale 1        # paper scale (slow)
//	taqbench -json -scale 0.05 -out BENCH_results.json
//	taqbench -json -scale 0.05 -compare BENCH_baseline.json
//
// -compare gates on behaviour drift against a committed baseline report
// (see compare.go): every baseline metric must be bit-equal and every
// deterministic row's output byte-equal. Non-zero exit on any drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"taq/experiments"
)

// expReport is one experiment's entry in the -json report.
type expReport struct {
	Name string `json:"name"`
	// WallClock rows print machine-dependent columns: -compare holds
	// them to their metrics only.
	WallClock bool               `json:"wall_clock,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Output    string             `json:"output,omitempty"`
}

// report is the full -json document.
type report struct {
	Scale       float64     `json:"scale"`
	Seed        int64       `json:"seed"`
	Experiments []expReport `json:"experiments"`
}

// runRow runs one registry row and files its result in rep.
func (rep *report) runRow(x experiments.Experiment, csv bool) *expReport {
	r := x.Run(experiments.Env{Scale: experiments.Scale(rep.Scale), Seed: rep.Seed, CSV: csv})
	rep.Experiments = append(rep.Experiments, expReport{x.Name, x.WallClock, r.Metrics, r.Output})
	return &rep.Experiments[len(rep.Experiments)-1]
}

func main() {
	var names []string
	for _, x := range experiments.All {
		names = append(names, fmt.Sprintf("%s (%s)", x.Name, x.Paper))
	}
	var (
		list      = flag.String("experiment", "all", "comma-separated rows of experiments.All, or all: "+strings.Join(names, ", "))
		scale     = flag.Float64("scale", 0.25, "experiment scale (1 = paper scale)")
		seed      = flag.Int64("seed", 1, "random seed")
		csv       = flag.Bool("csv", false, "emit every sweep as CSV instead of a table")
		parallel  = flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON report instead of tables")
		outPath   = flag.String("out", "", "write the JSON report to this file (default stdout)")
		compare   = flag.String("compare", "", "compare this run against a baseline JSON report (e.g. BENCH_baseline.json) and exit non-zero on any drift")
		reportOut = flag.String("report-out", "", "write the "+experiments.HistogramReport+" experiment's percentile table to this file (forces that experiment to run)")

		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut = flag.String("trace", "", "write a runtime/trace to this file")
	)
	flag.Parse()
	experiments.SetParallelism(*parallel)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.Start(f); err != nil {
			fail(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}()
	}

	also := ""
	if *reportOut != "" {
		also = experiments.HistogramReport
	}
	rows, err := selectRows(*list, also)
	if err != nil {
		fail(err)
	}

	rep := report{Scale: *scale, Seed: *seed}
	total := time.Now()
	for _, x := range rows {
		start := time.Now()
		er := rep.runRow(x, *csv)
		if x.Name == also {
			if err := os.WriteFile(*reportOut, []byte(er.Output), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[wrote %s]\n", *reportOut)
		}
		if !*jsonOut {
			fmt.Printf("=== %s (scale %.2f) ===\n", x.Name, *scale)
			fmt.Println(er.Output)
		}
		// Timing is nondeterministic, so it goes to stderr: stdout must
		// stay byte-identical across -parallel values.
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n", x.Name, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "[total wall time %.1fs over %d experiments, parallel=%d]\n",
		time.Since(total).Seconds(), len(rep.Experiments), experiments.Parallelism())

	if *jsonOut {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		enc = append(enc, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[wrote %s]\n", *outPath)
		} else {
			os.Stdout.Write(enc)
		}
	}

	if *compare != "" {
		base, err := loadReport(*compare)
		if err != nil {
			fail(err)
		}
		drift := compareReports(&rep, base)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "taqbench: drift:", d)
		}
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "taqbench: %d difference(s) vs %s\n", len(drift), *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[identical to %s]\n", *compare)
	}
}

// selectRows returns the rows of experiments.All named in the
// comma-separated list (or all of them), plus the row named also if
// any, in registry order.
func selectRows(list, also string) ([]experiments.Experiment, error) {
	want := map[string]bool{also: true}
	for _, k := range strings.Split(list, ",") {
		want[strings.TrimSpace(k)] = true
	}
	var rows []experiments.Experiment
	for _, x := range experiments.All {
		if want["all"] || want[x.Name] {
			rows = append(rows, x)
		}
		delete(want, x.Name)
	}
	delete(want, "all")
	delete(want, also)
	for k := range want {
		return nil, fmt.Errorf("unknown experiment %q", k)
	}
	return rows, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "taqbench:", err)
	os.Exit(1)
}
