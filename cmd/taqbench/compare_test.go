package main

import (
	"math"
	"strings"
	"testing"

	"taq/experiments"
)

func benchReport(jfi float64, output string) *report {
	return &report{
		Scale: 0.05,
		Seed:  1,
		Experiments: []expReport{{
			Name:    "fig8",
			Metrics: map[string]float64{"subpacket_short_jfi": jfi, "points": 40},
			Output:  output,
		}},
	}
}

func TestCompareReports(t *testing.T) {
	const table = "Queue: taq\nbandwidth  flows\n"
	base := benchReport(0.80, table)
	wallClock := func(r *report) *report {
		r.Experiments[0].WallClock = true
		return r
	}
	otherSeed := benchReport(0.80, table)
	otherSeed.Seed = 2
	extra := benchReport(0.80, table)
	extra.Experiments[0].Metrics["new_metric"] = 1
	extra.Experiments = append(extra.Experiments, expReport{Name: "fig99"})
	cases := []struct {
		name string
		cur  *report
		want string // required substring of some drift line; "" = no drift
	}{
		{"identical", benchReport(0.80, table), ""},
		// The tolerance these two names speak of is zero since the gate
		// became exact; the ulp cases below are its edge.
		{"metric drop beyond tolerance", benchReport(0.60, table), "subpacket_short_jfi"},
		{"metric rise beyond tolerance is also drift", benchReport(1.00, table), "subpacket_short_jfi"},
		{"metric one ulp up is drift", benchReport(math.Nextafter(0.80, 1), table), "subpacket_short_jfi"},
		{"metric one ulp down is drift", benchReport(math.Nextafter(0.80, 0), table), "subpacket_short_jfi"},
		{"output one byte off is drift", benchReport(0.80, "Queue: taq\nbandwidth  flowz\n"), `line 2: "bandwidth  flowz"`},
		{"wall-clock row output is not compared", wallClock(benchReport(0.80, "wall s 1.23\n")), ""},
		{"wall-clock row metrics still are", wallClock(benchReport(0.81, table)), "subpacket_short_jfi"},
		{"another seed is not comparable", otherSeed, "seed 2"},
		{"new metrics and experiments are additions", extra, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drift := compareReports(tc.cur, base)
			if tc.want == "" {
				if len(drift) != 0 {
					t.Fatalf("want no drift, got %v", drift)
				}
				return
			}
			for _, d := range drift {
				if strings.Contains(d, tc.want) {
					return
				}
			}
			t.Fatalf("no drift line contains %q in %v", tc.want, drift)
		})
	}
}

func TestCompareReportsMissing(t *testing.T) {
	base := benchReport(0.80, "")
	base.Experiments[0].Metrics["extra_metric"] = 1

	t.Run("missing metric", func(t *testing.T) {
		drift := compareReports(benchReport(0.80, ""), base)
		if len(drift) != 1 || !strings.Contains(drift[0], "extra_metric") {
			t.Fatalf("want one missing-metric line, got %v", drift)
		}
	})
	t.Run("missing experiment", func(t *testing.T) {
		drift := compareReports(&report{Scale: 0.05, Seed: 1}, base)
		if len(drift) != 1 || !strings.Contains(drift[0], "experiment fig8") {
			t.Fatalf("want one missing-experiment line, got %v", drift)
		}
	})
	t.Run("zero baseline metric", func(t *testing.T) {
		b := benchReport(0.80, "")
		b.Experiments[0].Metrics["zeroed"] = 0
		cur := benchReport(0.80, "")
		cur.Experiments[0].Metrics["zeroed"] = 0.5
		drift := compareReports(cur, b)
		if len(drift) != 1 || !strings.Contains(drift[0], "zeroed") {
			t.Fatalf("want one zero-baseline line, got %v", drift)
		}
	})
}

// TestSuiteMatchesBaseline is the exact behaviour gate in tier-1: every
// deterministic row, run at the committed baseline's scale and seed,
// must reproduce its metrics bit for bit and its output byte for byte.
// After an intended change regenerate the baseline with
// go run ./cmd/taqbench -json -scale 0.05 -out BENCH_baseline.json.
func TestSuiteMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole deterministic suite")
	}
	base, err := loadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	cur := &report{Scale: base.Scale, Seed: base.Seed}
	ran := map[string]bool{}
	for _, x := range experiments.All {
		if !x.WallClock {
			cur.runRow(x, false)
			ran[x.Name] = true
		}
	}
	// The wall-clock rows were not run; take them out of the baseline
	// rather than report them missing.
	kept := base.Experiments[:0]
	for _, b := range base.Experiments {
		if ran[b.Name] {
			kept = append(kept, b)
		}
	}
	base.Experiments = kept
	if len(kept) != len(ran) {
		t.Errorf("baseline has %d of the %d deterministic rows", len(kept), len(ran))
	}
	for _, d := range compareReports(cur, base) {
		t.Error(d)
	}
}

func TestSelectRows(t *testing.T) {
	all, err := selectRows("all", "")
	if err != nil || len(all) != len(experiments.All) {
		t.Fatalf("all: %d rows, err %v", len(all), err)
	}
	first, last := experiments.All[0].Name, experiments.All[len(experiments.All)-1].Name
	rows, err := selectRows(" "+last+","+first, "")
	if err != nil || len(rows) != 2 || rows[0].Name != first || rows[1].Name != last {
		t.Errorf("subset not in registry order: %v, err %v", rows, err)
	}
	rows, err = selectRows(first, experiments.HistogramReport)
	if err != nil || len(rows) != 2 || rows[1].Name != experiments.HistogramReport {
		t.Errorf("forced row missing: %v, err %v", rows, err)
	}
	if _, err := selectRows(first+",fig99", ""); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("unknown name accepted: %v", err)
	}
}
