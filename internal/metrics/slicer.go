package metrics

import (
	"sort"

	"taq/internal/packet"
	"taq/internal/sim"
)

// Slicer accumulates per-flow delivered bytes into fixed-width time
// slices. It powers the short- and long-term fairness analyses
// (Figs 2, 8, 11) and flow-evolution classification (Fig 9).
//
// Flows must be registered (with their lifetime) so that slices in
// which a live flow delivered nothing count as zero allocations —
// that is exactly the "shut-out flows" effect the paper measures.
type Slicer struct {
	width sim.Time
	flows map[packet.FlowID]*flowSeries
}

type flowSeries struct {
	start, end sim.Time // lifetime; end < 0 means still alive
	// bytes[k] is what slice first+k received; slices outside it
	// received nothing. A flow delivers into a run of neighbouring
	// slices, so the run is stored flat.
	first int
	bytes []float64
}

// at returns the bytes recorded in slice i.
func (fs *flowSeries) at(i int) float64 {
	if k := i - fs.first; k >= 0 && k < len(fs.bytes) {
		return fs.bytes[k]
	}
	return 0
}

// add records b more bytes in slice i, extending the run to reach it.
func (fs *flowSeries) add(i int, b float64) {
	switch {
	case len(fs.bytes) == 0:
		fs.first = i
	case i < fs.first:
		fs.bytes = append(make([]float64, fs.first-i, fs.first-i+len(fs.bytes)), fs.bytes...)
		fs.first = i
	}
	for i-fs.first >= len(fs.bytes) {
		fs.bytes = append(fs.bytes, 0)
	}
	fs.bytes[i-fs.first] += b
}

// NewSlicer creates a slicer with the given slice width (the paper
// uses 20-second slices for short-term fairness).
func NewSlicer(width sim.Time) *Slicer {
	if width <= 0 {
		width = sim.Second
	}
	return &Slicer{width: width, flows: make(map[packet.FlowID]*flowSeries)}
}

// Width returns the slice width.
func (s *Slicer) Width() sim.Time { return s.width }

// Register declares a flow alive from start. Deliveries for
// unregistered flows are registered implicitly at first delivery.
func (s *Slicer) Register(f packet.FlowID, start sim.Time) {
	if _, ok := s.flows[f]; !ok {
		s.flows[f] = &flowSeries{start: start, end: -1}
	}
}

// Finish marks a flow's lifetime end (e.g. transfer completed), so
// later slices no longer count it as shut out.
func (s *Slicer) Finish(f packet.FlowID, end sim.Time) {
	if fs, ok := s.flows[f]; ok {
		fs.end = end
	}
}

// Record adds delivered bytes for flow f at virtual time at.
func (s *Slicer) Record(f packet.FlowID, at sim.Time, bytes int) {
	fs, ok := s.flows[f]
	if !ok {
		s.Register(f, at)
		fs = s.flows[f]
	}
	fs.add(int(at/s.width), float64(bytes))
}

// NumFlows returns the number of registered flows.
func (s *Slicer) NumFlows() int { return len(s.flows) }

// sortedIDs returns the registered flow ids in ascending order, so
// share vectors and floating-point sums are assembled deterministically
// rather than in map order.
func (s *Slicer) sortedIDs() []packet.FlowID {
	ids := make([]packet.FlowID, 0, len(s.flows))
	for id := range s.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// aliveIn reports whether the flow overlaps slice i.
func (fs *flowSeries) aliveIn(i int, width sim.Time) bool {
	sliceStart := sim.Time(i) * width
	sliceEnd := sliceStart + width
	if fs.start >= sliceEnd {
		return false
	}
	return fs.end < 0 || fs.end > sliceStart
}

// SliceShares returns the per-flow delivered bytes in slice i for all
// flows alive during that slice (zeros included).
func (s *Slicer) SliceShares(i int) []float64 {
	var out []float64
	for _, id := range s.sortedIDs() {
		fs := s.flows[id]
		if fs.aliveIn(i, s.width) {
			out = append(out, fs.at(i))
		}
	}
	return out
}

// SliceJFI returns the Jain index of slice i's shares.
func (s *Slicer) SliceJFI(i int) float64 { return JainIndex(s.SliceShares(i)) }

// MeanSliceJFI averages the per-slice Jain index over slices
// [from, to) — the paper's "short-term fairness over 20 s slices".
// Slices with no live flows are skipped.
func (s *Slicer) MeanSliceJFI(from, to int) float64 {
	sum, n := 0.0, 0
	for i := from; i < to; i++ {
		shares := s.SliceShares(i)
		if len(shares) == 0 {
			continue
		}
		sum += JainIndex(shares)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TotalJFI returns the Jain index of total bytes over slices
// [from, to) — long-term fairness.
func (s *Slicer) TotalJFI(from, to int) float64 {
	var shares []float64
	for _, id := range s.sortedIDs() {
		fs := s.flows[id]
		total := 0.0
		alive := false
		for i := from; i < to; i++ {
			if fs.aliveIn(i, s.width) {
				alive = true
				total += fs.at(i)
			}
		}
		if alive {
			shares = append(shares, total)
		}
	}
	return JainIndex(shares)
}

// FlowTotal returns all bytes recorded for flow f.
func (s *Slicer) FlowTotal(f packet.FlowID) float64 {
	fs, ok := s.flows[f]
	if !ok {
		return 0
	}
	// Ascending slice order; the zeros of silent slices add exactly.
	t := 0.0
	for _, b := range fs.bytes {
		t += b
	}
	return t
}

// EvolutionCounts classifies, per slice, each live flow by its
// progress transition from the previous slice (Fig 9):
//
//	Maintained: delivered in both the previous and current slice
//	Dropped:    delivered previously, silent now (just shut out)
//	Arriving:   silent previously, delivering now
//	Stalled:    silent in both (stuck in repetitive timeouts)
type EvolutionCounts struct {
	Slices     []int // slice indexes (from 1: needs a predecessor)
	Arriving   []int
	Dropped    []int
	Maintained []int
	Stalled    []int
}

// Evolution computes flow-evolution counts for slices [from+1, to).
func (s *Slicer) Evolution(from, to int) EvolutionCounts {
	var ev EvolutionCounts
	ids := s.sortedIDs()
	for i := from + 1; i < to; i++ {
		var arr, drp, mnt, stl int
		for _, id := range ids {
			fs := s.flows[id]
			if !fs.aliveIn(i, s.width) || !fs.aliveIn(i-1, s.width) {
				continue
			}
			prev := fs.at(i-1) > 0
			cur := fs.at(i) > 0
			switch {
			case prev && cur:
				mnt++
			case prev && !cur:
				drp++
			case !prev && cur:
				arr++
			default:
				stl++
			}
		}
		ev.Slices = append(ev.Slices, i)
		ev.Arriving = append(ev.Arriving, arr)
		ev.Dropped = append(ev.Dropped, drp)
		ev.Maintained = append(ev.Maintained, mnt)
		ev.Stalled = append(ev.Stalled, stl)
	}
	return ev
}

// MeanStalled returns the average stalled-flow count across the
// classified slices.
func (ev *EvolutionCounts) MeanStalled() float64 { return meanInts(ev.Stalled) }

// MeanMaintained returns the average maintained-flow count.
func (ev *EvolutionCounts) MeanMaintained() float64 { return meanInts(ev.Maintained) }

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
