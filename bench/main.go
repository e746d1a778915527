// Command bench is the repository's benchmark: six workloads through
// the simulator stack, the raw middlebox and the emu shard bank, measured
// end to end (untraced) and layer by layer (a separate traced pass).
//
//	go run ./bench -workload <name|all> -seed N [-seconds S] [-trace 1] [-out f.json]
//	go run ./bench -compare a.json b.json
//
// See README.md in this directory for the workloads, the metrics and
// the written predictions of which layer moves which number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// runFile is what -out writes and -compare reads.
type runFile struct {
	Header    header     `json:"header"`
	Workloads []wlResult `json:"workloads"`
}

type header struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "wall seconds the timed repetitions of one workload are sized for")
	trace := flag.Int("trace", 0, "1 runs the traced pass (CPU profile and harness spans) and prints the per-layer metrics")
	out := flag.String("out", "", "also write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	var run []wlSpec
	if *workload == "all" {
		run = specs
	} else if s, ok := specByName(*workload); ok {
		run = []wlSpec{s}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	file := runFile{Header: hostHeader(*seed, *seconds, *trace == 1)}
	ok := true
	for _, spec := range run {
		var res wlResult
		if *trace == 1 {
			res = runTraced(spec, *seed, *seconds/10)
		} else {
			res = runUntraced(spec, *seed, *seconds/10)
		}
		printResult(&res)
		file.Workloads = append(file.Workloads, res)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

func hostHeader(seed int64, seconds float64, traced bool) header {
	h := header{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: seed, Seconds: seconds, Traced: traced}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the one
// JSON object the driver reads from the last line: the gated end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printResult(r *wlResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s", r.Workload, r.Seed, mode)
	if r.Digest != "" {
		fmt.Printf("  sim_digest %s", r.Digest)
	}
	fmt.Println()
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]jm{}}
	for _, m := range r.Metrics {
		fmt.Printf("  %-30s %16.6g %-6s", m.Name, m.Value, m.Unit)
		switch {
		case len(m.Reps) > 1:
			fmt.Printf("  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
		case m.N > 1:
			fmt.Printf("  n %d", m.N)
		}
		if m.Allocs != nil {
			fmt.Printf("  %.3g allocs/op", *m.Allocs)
		}
		fmt.Println()
		if d, _ := defOf(m.Name); r.Traced || d.gated {
			last.Metrics[m.Name] = jm{m.Value, m.Unit}
		}
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAIL %s\n", e)
	}
	b, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}
