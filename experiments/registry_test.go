package experiments

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestRegistry pins the suite's shape: the names and their order are
// what BENCH_baseline.json, CI and the docs are keyed by, and every
// row must be indexed in DESIGN.md §3 under its paper ID.
func TestRegistry(t *testing.T) {
	want := []string{"model", "fig1", "fig2", "fig3", "hang", "redsfq", "fig6", "fig8", "fig9", "fig10", "fig11",
		"fig12", "tfrc", "ablation", "iw", "subpacket", "scale", "shard", "pcap", "tbweb", "report"}
	var got []string
	for _, x := range All {
		got = append(got, x.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order:\n got %v\nwant %v", got, want)
	}

	design, err := os.ReadFile("../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "\n## 3. ")
	index, _, _ = strings.Cut(index, "\n## 4. ")
	seen := map[string]bool{}
	for _, x := range All {
		if seen[x.Name] {
			t.Errorf("duplicate row %q", x.Name)
		}
		seen[x.Name] = true
		found := false
		for _, line := range strings.Split(index, "\n") {
			if strings.HasPrefix(line, "| "+x.Paper+" |") && strings.Contains(line, "`taqbench -experiment "+x.Name+"`") {
				found = true
			}
		}
		if !found {
			t.Errorf("DESIGN.md §3 has no row %q naming `taqbench -experiment %s`", x.Paper, x.Name)
		}
	}
}

// TestZeroSeedMeansOne checks the registry's one seed default.
func TestZeroSeedMeansOne(t *testing.T) {
	x := Experiment{run: func(env Env) Report { return Report{Metrics: map[string]float64{"seed": float64(env.Seed)}} }}
	if got := x.Run(Env{}).Metrics["seed"]; got != 1 {
		t.Errorf("zero seed ran as %v, want 1", got)
	}
	if got := x.Run(Env{Seed: 7}).Metrics["seed"]; got != 7 {
		t.Errorf("seed 7 ran as %v", got)
	}
}
