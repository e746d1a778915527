package experiments

import "taq/internal/topology"

// Env is what a run of the suite fixes for every row.
type Env struct {
	Scale Scale
	Seed  int64 // 0 means 1
	CSV   bool  // render sweeps as CSV instead of tables
}

// Report is what a row hands back: the rendered rows/series the paper
// reports, and the headline numbers the committed baseline pins.
type Report struct {
	Output  string
	Metrics map[string]float64
}

// Experiment is one row of the registry: a table/figure of the paper's
// evaluation (Paper is its ID in DESIGN.md §3) and how to reproduce it.
type Experiment struct {
	Name  string
	Paper string
	// WallClock marks rows whose Output prints wall-time columns or
	// was measured on the real-time engine: Output is then not
	// reproducible byte for byte, Metrics still are.
	WallClock bool
	run       func(Env) Report
}

// Run reproduces the row. The zero seed is defaulted here, for every
// row, and nowhere else.
func (x Experiment) Run(env Env) Report {
	if env.Seed == 0 {
		env.Seed = 1
	}
	return x.run(env)
}

// HistogramReport names the row whose Output doubles as a per-run
// artifact (taqbench -report-out writes it next to the JSON report).
const HistogramReport = "report"

// All is the evaluation suite in the order it runs and prints. A rival
// discipline joins it as a queue.Discipline plus one fairness row.
var All = []Experiment{
	{Name: "model", Paper: "§3.1", run: modelTables},
	{Name: "fig1", Paper: "Fig 1", run: fig1},
	{Name: "fig2", Paper: "Fig 2", run: fairnessFigure(topology.DropTail, true)},
	{Name: "fig3", Paper: "Fig 3", run: fig3},
	{Name: "hang", Paper: "§2.3", run: hang},
	{Name: "redsfq", Paper: "§2.4", run: redSfq},
	{Name: "fig6", Paper: "Fig 6", run: fig6},
	{Name: "fig8", Paper: "Fig 8", run: fairnessFigure(topology.TAQ, false)},
	{Name: "fig9", Paper: "Fig 9", run: fig9},
	{Name: "fig10", Paper: "Fig 10", run: fig10},
	{Name: "fig11", Paper: "Fig 11", WallClock: true, run: fig11},
	{Name: "fig12", Paper: "Fig 12", run: fig12},
	{Name: "tfrc", Paper: "§1", run: tfrc},
	{Name: "ablation", Paper: "ablation", run: ablation},
	{Name: "iw", Paper: "§2.1", run: initialWindow},
	{Name: "subpacket", Paper: "§7", run: subPacket},
	{Name: "pcap", Paper: "§2.3 pcap", run: pcap},
	{Name: "tbweb", Paper: "§5.4–5.5", WallClock: true, run: testbedWeb},
	{Name: HistogramReport, Paper: "telemetry", run: histogramReport},
}
