package main

// compare.go is taqbench's behaviour gate: -compare diffs the current
// run's report against a committed baseline (BENCH_baseline.json) and
// exits non-zero on any difference. Everything compared is
// deterministic for a fixed seed and scale, so there is no tolerance: a
// metric that moves in the last bit, or a table that moves by a byte,
// is a behaviour change. Wall time is not compared at all; the perf
// ledger is go run ./bench.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// loadReport reads a -json report written by a previous taqbench run.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// compareReports returns one line per difference of cur against base:
// every baseline experiment must have run, every baseline metric must
// be present and bit-equal, and the output must be byte-equal unless
// the row is marked WallClock. Metrics and experiments only cur has
// are additions, not drift.
func compareReports(cur, base *report) []string {
	if cur.Scale != base.Scale || cur.Seed != base.Seed {
		return []string{fmt.Sprintf("run at scale %g seed %d, baseline at scale %g seed %d",
			cur.Scale, cur.Seed, base.Scale, base.Seed)}
	}
	var drift []string
	byName := make(map[string]*expReport, len(cur.Experiments))
	for i := range cur.Experiments {
		byName[cur.Experiments[i].Name] = &cur.Experiments[i]
	}
	for _, b := range base.Experiments {
		c, ok := byName[b.Name]
		if !ok {
			drift = append(drift, fmt.Sprintf("experiment %s: in baseline but missing from this run", b.Name))
			continue
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if cv, ok := c.Metrics[k]; !ok {
				drift = append(drift, fmt.Sprintf("%s %s: in baseline but missing from this run", b.Name, k))
			} else if cv != b.Metrics[k] {
				drift = append(drift, fmt.Sprintf("%s %s: %v, baseline %v", b.Name, k, cv, b.Metrics[k]))
			}
		}
		if !c.WallClock && c.Output != b.Output {
			drift = append(drift, fmt.Sprintf("%s output differs from baseline:\n%s", b.Name, firstDiff(c.Output, b.Output)))
		}
	}
	return drift
}

// firstDiff shows the first line at which two outputs part ways.
func firstDiff(cur, base string) string {
	cl, bl := strings.Split(cur, "\n"), strings.Split(base, "\n")
	for i := 0; i < len(cl) || i < len(bl); i++ {
		var c, b string
		if i < len(cl) {
			c = cl[i]
		}
		if i < len(bl) {
			b = bl[i]
		}
		if c != b {
			return fmt.Sprintf("  line %d: %q\n  baseline: %q", i+1, c, b)
		}
	}
	return ""
}
