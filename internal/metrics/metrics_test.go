package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taq/internal/packet"
	"taq/internal/sim"
)

func TestJainIndexExtremes(t *testing.T) {
	if j := JainIndex([]float64{5, 5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares JFI = %v, want 1", j)
	}
	if j := JainIndex([]float64{10, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("hog JFI = %v, want 1/4", j)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

// Property: JFI is always in [1/n, 1] for non-negative non-zero inputs
// and is scale invariant.
func TestJainIndexProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		if !any {
			return JainIndex(xs) == 0
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		if j < 1/n-1e-12 || j > 1+1e-12 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(JainIndex(scaled)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestCDFPercentiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if c.Min() != 1 || c.Max() != 100 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
	if got := c.Percentile(90); got < 89 || got > 92 {
		t.Errorf("p90 = %v", got)
	}
	if got := c.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if c.N() != 100 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Median()) || !math.IsNaN(c.Mean()) || !math.IsNaN(c.FractionBelow(1)) {
		t.Error("empty CDF should return NaN")
	}
}

func TestCDFFractionBelow(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 2, 3} {
		c.Add(v)
	}
	if got := c.FractionBelow(2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("FractionBelow(2) = %v, want 0.75", got)
	}
	if got := c.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %v, want 0", got)
	}
}

func TestSlicerJFI(t *testing.T) {
	s := NewSlicer(20 * sim.Second)
	for f := packet.FlowID(0); f < 4; f++ {
		s.Register(f, 0)
	}
	// Slice 0: only flow 0 delivers. Slice 1: all deliver equally.
	s.Record(0, 5*sim.Second, 1000)
	for f := packet.FlowID(0); f < 4; f++ {
		s.Record(f, 25*sim.Second, 500)
	}
	if j := s.SliceJFI(0); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("slice 0 JFI = %v, want 0.25", j)
	}
	if j := s.SliceJFI(1); math.Abs(j-1) > 1e-12 {
		t.Errorf("slice 1 JFI = %v, want 1", j)
	}
	mean := s.MeanSliceJFI(0, 2)
	if math.Abs(mean-0.625) > 1e-12 {
		t.Errorf("mean JFI = %v, want 0.625", mean)
	}
}

func TestSlicerLongTermVsShortTerm(t *testing.T) {
	// Two flows alternate slices: short-term unfair, long-term fair —
	// the paper's central §2.3 observation.
	s := NewSlicer(20 * sim.Second)
	s.Register(0, 0)
	s.Register(1, 0)
	for i := 0; i < 10; i++ {
		f := packet.FlowID(i % 2)
		s.Record(f, sim.Time(i)*20*sim.Second+sim.Second, 1000)
	}
	if st := s.MeanSliceJFI(0, 10); st > 0.6 {
		t.Errorf("short-term JFI = %v, want ≈0.5", st)
	}
	if lt := s.TotalJFI(0, 10); lt < 0.99 {
		t.Errorf("long-term JFI = %v, want ≈1", lt)
	}
}

func TestSlicerLifetimes(t *testing.T) {
	s := NewSlicer(10 * sim.Second)
	s.Register(0, 0)
	s.Register(1, 25*sim.Second) // starts in slice 2
	s.Record(0, 5*sim.Second, 100)
	// Slice 0 should only see flow 0.
	if n := len(s.SliceShares(0)); n != 1 {
		t.Errorf("slice 0 has %d flows, want 1", n)
	}
	s.Finish(0, 15*sim.Second)
	// Slice 2: flow 0 finished, flow 1 alive.
	if n := len(s.SliceShares(2)); n != 1 {
		t.Errorf("slice 2 has %d flows, want 1", n)
	}
}

func TestSlicerImplicitRegister(t *testing.T) {
	s := NewSlicer(sim.Second)
	s.Record(7, 500*sim.Millisecond, 42)
	if s.FlowTotal(7) != 42 {
		t.Errorf("FlowTotal = %v", s.FlowTotal(7))
	}
	if s.FlowTotal(99) != 0 {
		t.Error("unknown flow should total 0")
	}
}

func TestEvolutionClassification(t *testing.T) {
	s := NewSlicer(10 * sim.Second)
	for f := packet.FlowID(0); f < 4; f++ {
		s.Register(f, 0)
	}
	// Slice 0: flows 0,1 deliver. Slice 1: flows 1,2 deliver.
	s.Record(0, sim.Second, 1)
	s.Record(1, sim.Second, 1)
	s.Record(1, 11*sim.Second, 1)
	s.Record(2, 11*sim.Second, 1)
	ev := s.Evolution(0, 2)
	if len(ev.Slices) != 1 {
		t.Fatalf("slices = %v", ev.Slices)
	}
	// flow 0: dropped; flow 1: maintained; flow 2: arriving; flow 3: stalled.
	if ev.Dropped[0] != 1 || ev.Maintained[0] != 1 || ev.Arriving[0] != 1 || ev.Stalled[0] != 1 {
		t.Errorf("evolution = %+v", ev)
	}
	if ev.MeanStalled() != 1 || ev.MeanMaintained() != 1 {
		t.Errorf("means = %v %v", ev.MeanStalled(), ev.MeanMaintained())
	}
}

func TestHangTracker(t *testing.T) {
	h := NewHangTracker()
	h.Start(1, 0)
	h.Touch(1, 5*sim.Second)
	h.Touch(1, 6*sim.Second)
	h.Touch(1, 30*sim.Second) // 24s gap
	h.Finish(40 * sim.Second) // trailing 10s gap
	if got := h.MaxHang(1); got != 24*sim.Second {
		t.Errorf("MaxHang = %v, want 24s", got)
	}
	h2 := NewHangTracker()
	h2.Start(1, 0)
	h2.Finish(60 * sim.Second)
	if got := h2.MaxHang(1); got != 60*sim.Second {
		t.Errorf("never-delivered pool hang = %v, want 60s", got)
	}
}

func TestHangFractionExceeding(t *testing.T) {
	h := NewHangTracker()
	h.Start(1, 0)
	h.Start(2, 0)
	// Pool 1 delivers every 5 s (max gap 5 s); pool 2 delivers once at
	// 30 s (max gap 30 s).
	for ts := 5 * sim.Second; ts <= 35*sim.Second; ts += 5 * sim.Second {
		h.Touch(1, ts)
	}
	h.Touch(2, 30*sim.Second)
	h.Finish(35 * sim.Second)
	if f := h.FractionExceeding(20 * sim.Second); f != 0.5 {
		t.Errorf("FractionExceeding(20s) = %v, want 0.5", f)
	}
	if f := h.FractionExceeding(5 * sim.Second); f != 1 {
		t.Errorf("FractionExceeding(5s) = %v, want 1", f)
	}
	if h.NumPools() != 2 {
		t.Errorf("NumPools = %d", h.NumPools())
	}
	// Touch on unknown pool auto-starts.
	h.Touch(3, 40*sim.Second)
	if h.NumPools() != 3 {
		t.Error("Touch should auto-start unknown pools")
	}
}

func TestBucketStats(t *testing.T) {
	samples := []SizeSample{
		{100, 1}, {150, 2}, {200, 3}, // ~100B bucket(s)
		{10000, 5}, {20000, 50}, // ~10KB
		{0, 99}, // ignored (size < 1)
	}
	stats := BucketStats(samples, 1)
	if len(stats) < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	total := 0
	for _, b := range stats {
		total += b.N
		if b.Min > b.Avg || b.Avg > b.Max || b.P10 > b.P90 {
			t.Errorf("inconsistent bucket %+v", b)
		}
		if b.Lo >= b.Hi {
			t.Errorf("bucket bounds %v ≥ %v", b.Lo, b.Hi)
		}
	}
	if total != 5 {
		t.Errorf("bucketed %d samples, want 5", total)
	}
}

func TestBucketSpreadOrders(t *testing.T) {
	b := BucketStat{Min: 0.1, Max: 100}
	if got := b.SpreadOrders(); math.Abs(got-3) > 1e-12 {
		t.Errorf("SpreadOrders = %v, want 3", got)
	}
	if (BucketStat{}).SpreadOrders() != 0 {
		t.Error("zero bucket should have 0 spread")
	}
}

func TestCensus(t *testing.T) {
	c := NewCensus(6)
	c.Register(1)
	c.Register(2)
	// Epoch 1: flow 1 sends 2, flow 2 silent.
	c.Observe(1)
	c.Observe(1)
	c.Roll()
	// Epoch 2: flow 1 sends 9 (clamped to 6), flow 2 sends 1.
	for i := 0; i < 9; i++ {
		c.Observe(1)
	}
	c.Observe(2)
	c.Roll()
	d := c.Distribution()
	if c.Epochs() != 4 {
		t.Fatalf("epochs = %d, want 4", c.Epochs())
	}
	want := map[int]float64{0: 0.25, 1: 0.25, 2: 0.25, 6: 0.25}
	for k, v := range want {
		if math.Abs(d[k]-v) > 1e-12 {
			t.Errorf("class %d = %v, want %v", k, d[k], v)
		}
	}
}

func TestCensusScheduledRolls(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCensus(6)
	c.Register(1)
	c.ScheduleRolls(e, 100*sim.Millisecond)
	e.RunUntil(sim.Second)
	if c.Epochs() != 10 {
		t.Errorf("epochs = %d, want 10", c.Epochs())
	}
}

// TestCensusObserveRegisters pins the per-id table's holes: a flow seen
// before it was registered is counted from then on, and the ids below
// it that nothing registered contribute no epochs.
func TestCensusObserveRegisters(t *testing.T) {
	c := NewCensus(6)
	c.Observe(3)
	c.Roll()
	c.Roll()
	if c.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2 (flow 3 only)", c.Epochs())
	}
	if d := c.Distribution(); d[0] != 0.5 || d[1] != 0.5 {
		t.Errorf("distribution = %v, want half class 0, half class 1", d)
	}
}

func TestCensusEmptyDistribution(t *testing.T) {
	c := NewCensus(6)
	if len(c.Distribution()) != 0 {
		t.Error("empty census should return empty distribution")
	}
}
