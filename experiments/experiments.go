// Package experiments is the paper's evaluation as a registry: All
// holds one row per table/figure, each reproducing the corresponding
// workload, parameter sweep and measurement and rendering the same
// rows/series the paper reports, plus the headline metrics the
// committed baseline pins. Every row takes a scale factor that shrinks
// run durations (and, where safe, sweep sizes) so the suite doubles as
// a fast regression test; cmd/taqbench iterates All at any scale and
// knows no row by name.
//
// The experiment-to-module map lives in DESIGN.md §3; paper-vs-measured
// results are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/workload"
)

// Scale shrinks experiment durations and sweep sizes. 1.0 is paper
// scale; the test suite and benches run around 0.02–0.1.
type Scale float64

// duration scales d, enforcing a floor.
func (s Scale) duration(d, floor sim.Time) sim.Time {
	scaled := sim.Time(float64(d) * float64(s))
	if scaled < floor {
		return floor
	}
	return scaled
}

// count scales an integer count with a floor.
func (s Scale) count(n, floor int) int {
	scaled := int(float64(n) * float64(s))
	if scaled < floor {
		return floor
	}
	return scaled
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// csvTable renders rows as RFC-4180-ish CSV (fields here never contain
// commas or quotes).
func csvTable(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// column is one table column: its header and how a point renders in it.
type column[P any] struct {
	head string
	cell func(P) string
}

// sweep is the one result form: points rendered through columns, as a
// fixed-width table under an optional free-form title, or as CSV.
type sweep[P any] struct {
	title  string
	points []P
	cols   []column[P]
}

func (s sweep[P]) rows() (header []string, rows [][]string) {
	for _, c := range s.cols {
		header = append(header, c.head)
	}
	for _, p := range s.points {
		row := make([]string, len(s.cols))
		for i, c := range s.cols {
			row[i] = c.cell(p)
		}
		rows = append(rows, row)
	}
	return
}

// Table renders the title and the points in the paper's axes.
func (s sweep[P]) Table() string {
	h, rows := s.rows()
	return s.title + table(h, rows)
}

// CSV renders the points as comma-separated values for plotting.
func (s sweep[P]) CSV() string {
	h, rows := s.rows()
	return csvTable(h, rows)
}

func (s sweep[P]) render(csv bool) string {
	if csv {
		return s.CSV()
	}
	return s.Table()
}

// metrics starts a row's headline metrics with the sweep's point count.
func (s sweep[P]) metrics() map[string]float64 {
	return map[string]float64{"points": float64(len(s.points))}
}

// find returns the first point satisfying match.
func find[P any](points []P, match func(P) bool) (P, bool) {
	for _, p := range points {
		if match(p) {
			return p, true
		}
	}
	var zero P
	return zero, false
}

// bulkDumbbell runs flows bulk TCP flows, started 50 ms apart, over
// cfg for duration and returns the finished network with the number of
// whole metric slices the run covered. prep hooks run on the fresh
// network before any flow is added (census, other transports).
func bulkDumbbell(cfg topology.Config, flows int, duration sim.Time, prep ...func(*topology.Network)) (*topology.Network, int) {
	net := topology.MustNew(cfg)
	for _, fn := range prep {
		fn(net)
	}
	workload.AddBulkFlows(net, flows, 50*sim.Millisecond)
	net.Run(duration)
	return net, int(duration / net.Slicer.Width())
}

func dec[T ~int | ~int64 | ~uint64](v T) string { return fmt.Sprintf("%d", v) }
func kbps(b link.Bps) string                    { return fmt.Sprintf("%.0fKbps", float64(b)/1e3) }
func f0(v float64) string                       { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string                       { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string                       { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string                       { return fmt.Sprintf("%.3f", v) }
