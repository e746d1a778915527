package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"taq/internal/packet"
	"taq/internal/sim"
)

// mapSlicer is the Slicer as it was while a flow's series was a
// map[int]float64 keyed by slice index: the reference the flat series is
// held to, bit for bit.
type mapSlicer struct {
	width sim.Time
	flows map[packet.FlowID]*mapSeries
}

type mapSeries struct {
	start, end sim.Time
	bytes      map[int]float64
}

func (m *mapSlicer) register(f packet.FlowID, start sim.Time) {
	if _, ok := m.flows[f]; !ok {
		m.flows[f] = &mapSeries{start: start, end: -1, bytes: make(map[int]float64)}
	}
}

func (m *mapSlicer) finish(f packet.FlowID, end sim.Time) {
	if fs, ok := m.flows[f]; ok {
		fs.end = end
	}
}

func (m *mapSlicer) record(f packet.FlowID, at sim.Time, bytes int) {
	m.register(f, at)
	m.flows[f].bytes[int(at/m.width)] += float64(bytes)
}

func (m *mapSlicer) sortedIDs() []packet.FlowID {
	ids := make([]packet.FlowID, 0, len(m.flows))
	for id := range m.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (fs *mapSeries) aliveIn(i int, width sim.Time) bool {
	from := sim.Time(i) * width
	return fs.start < from+width && (fs.end < 0 || fs.end > from)
}

func (m *mapSlicer) sliceShares(i int) []float64 {
	var out []float64
	for _, id := range m.sortedIDs() {
		if fs := m.flows[id]; fs.aliveIn(i, m.width) {
			out = append(out, fs.bytes[i])
		}
	}
	return out
}

func (m *mapSlicer) totalJFI(from, to int) float64 {
	var shares []float64
	for _, id := range m.sortedIDs() {
		fs := m.flows[id]
		total, alive := 0.0, false
		for i := from; i < to; i++ {
			if fs.aliveIn(i, m.width) {
				alive = true
				total += fs.bytes[i]
			}
		}
		if alive {
			shares = append(shares, total)
		}
	}
	return JainIndex(shares)
}

func (m *mapSlicer) flowTotal(f packet.FlowID) float64 {
	fs, ok := m.flows[f]
	if !ok {
		return 0
	}
	slices := make([]int, 0, len(fs.bytes))
	for i := range fs.bytes {
		slices = append(slices, i)
	}
	sort.Ints(slices)
	t := 0.0
	for _, i := range slices {
		t += fs.bytes[i]
	}
	return t
}

func (m *mapSlicer) evolution(from, to int) EvolutionCounts {
	var ev EvolutionCounts
	ids := m.sortedIDs()
	for i := from + 1; i < to; i++ {
		var arr, drp, mnt, stl int
		for _, id := range ids {
			fs := m.flows[id]
			if !fs.aliveIn(i, m.width) || !fs.aliveIn(i-1, m.width) {
				continue
			}
			switch prev, cur := fs.bytes[i-1] > 0, fs.bytes[i] > 0; {
			case prev && cur:
				mnt++
			case prev:
				drp++
			case cur:
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

// TestSlicerMatchesMapModel drives the Slicer and the map-based
// reference with the same seeded Register/Record/Finish stream and
// requires every reading to agree to the bit. The stream has what the
// flat series must get right: flows silent for many slices between
// deliveries, a delivery in a slice below the first one recorded,
// deliveries for flows never registered, byte counts whose float sums
// depend on the order of addition.
func TestSlicerMatchesMapModel(t *testing.T) {
	const (
		width  = 20 * sim.Second
		flows  = 24
		slices = 60
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSlicer(width)
		m := &mapSlicer{width: width, flows: make(map[packet.FlowID]*mapSeries)}
		at := func(slice int) sim.Time {
			return sim.Time(slice)*width + sim.Time(rng.Int63n(int64(width)))
		}
		belowFirst := 0
		for op := 0; op < 4000; op++ {
			f := packet.FlowID(rng.Intn(flows))
			switch r := rng.Intn(20); {
			case r == 0:
				// Flows in the upper half are only ever registered by
				// their first delivery.
				if f < flows/2 {
					when := at(rng.Intn(slices))
					s.Register(f, when)
					m.register(f, when)
				}
			case r == 1:
				when := at(rng.Intn(slices))
				s.Finish(f, when)
				m.finish(f, when)
			default:
				// Mostly near the flow's last slice, now and then
				// anywhere — far above it or below its first.
				slice := rng.Intn(slices)
				if fs, ok := s.flows[f]; ok && len(fs.bytes) > 0 && rng.Intn(8) != 0 {
					slice = min(slices-1, fs.first+len(fs.bytes)-1+rng.Intn(3))
				}
				if fs, ok := s.flows[f]; ok && len(fs.bytes) > 0 && slice < fs.first {
					belowFirst++
				}
				when, bytes := at(slice), 1+rng.Intn(3000)
				s.Record(f, when, bytes)
				m.record(f, when, bytes)
			}
		}
		if belowFirst == 0 {
			t.Fatalf("seed %d: no delivery landed below a series' first slice", seed)
		}

		sameBits := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d: %s = %v, the map model has %v", seed, what, got, want)
			}
		}
		if s.NumFlows() != len(m.flows) {
			t.Fatalf("seed %d: %d flows, the map model has %d", seed, s.NumFlows(), len(m.flows))
		}
		// One slice before and after the range anything was recorded in.
		for i := -1; i <= slices; i++ {
			got, want := s.SliceShares(i), m.sliceShares(i)
			if len(got) != len(want) {
				t.Fatalf("seed %d: slice %d has %d shares, the map model has %d", seed, i, len(got), len(want))
			}
			for k := range want {
				sameBits("a SliceShares entry", got[k], want[k])
			}
		}
		for f := packet.FlowID(0); f <= flows; f++ {
			sameBits("FlowTotal", s.FlowTotal(f), m.flowTotal(f))
		}
		for _, r := range [][2]int{{0, slices}, {3, 17}, {-2, 5}, {slices - 4, slices + 4}} {
			sameBits("TotalJFI", s.TotalJFI(r[0], r[1]), m.totalJFI(r[0], r[1]))
			if got, want := s.Evolution(r[0], r[1]), m.evolution(r[0], r[1]); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: Evolution(%d, %d) = %+v, the map model has %+v", seed, r[0], r[1], got, want)
			}
		}
	}
}
