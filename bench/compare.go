package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegress    = "REGRESS"
	verdictUnresolved = "unresolved"
)

// judge compares metric d of a baseline run a with a candidate run b.
// change is b's movement in the worse direction as a share of a's
// median (negative: better). A metric may worsen by its bound or its
// absolute floor, whichever is more, before that is a regression; and
// when either side's own repetitions spread (interquartile) wider than
// that, the medians decide nothing unless every repetition of one side
// beats every repetition of the other.
func judge(d metricDef, a, b value) (verdict string, change float64) {
	worse := b.Value - a.Value
	if d.higher {
		worse = -worse
	}
	if a.Value != 0 {
		change = worse / math.Abs(a.Value)
	}
	allowed := math.Max(d.bound*math.Abs(a.Value), d.floor)
	switch {
	case math.Max(a.Q3-a.Q1, b.Q3-b.Q1) > allowed && !separated(d, a, b) && !separated(d, b, a):
		return verdictUnresolved, change
	case worse > allowed:
		return verdictRegress, change
	case -worse > allowed:
		return verdictImproved, change
	}
	return verdictOK, change
}

// separated reports whether every repetition of b is worse than every
// repetition of a.
func separated(d metricDef, a, b value) bool {
	if len(a.Reps) == 0 || len(b.Reps) == 0 {
		return false
	}
	for _, x := range a.Reps {
		for _, y := range b.Reps {
			if d.higher && y >= x || !d.higher && y <= x {
				return false
			}
		}
	}
	return true
}

func readRun(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCompare prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row regressed or a sim_digest
// differs, 2 when a file cannot be read.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readRun(pathA)
	if err == nil {
		var b *runFile
		if b, err = readRun(pathB); err == nil {
			return compareRuns(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareRuns(w io.Writer, a, b *runFile) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tworse by\tbound\tverdict")
	code := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *wlResult
		for j := range b.Workloads {
			if b.Workloads[j].Workload == wa.Workload {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing\n", wa.Workload)
			code = 1
			continue
		}
		for _, d := range endToEndDefs {
			va, okA := wa.metric(d.name)
			vb, okB := wb.metric(d.name)
			if !okA || !okB || d.info {
				continue
			}
			verdict, change := judge(d, va, vb)
			if verdict == verdictRegress {
				code = 1
			}
			bound := fmt.Sprintf("%.0f%%", d.bound*100)
			if d.floor > 0 {
				bound += fmt.Sprintf(" or %g", d.floor)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n", wa.Workload, d.name, va.Value, vb.Value, change*100, bound, verdict)
		}
		if wa.Digest != "" || wb.Digest != "" {
			verdict := "same"
			if wa.Digest != wb.Digest {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\t%s\n", wa.Workload, wa.Digest, wb.Digest, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return code
}
