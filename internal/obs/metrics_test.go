package obs

import (
	"bytes"
	"strings"
	"testing"

	"taq/internal/metrics"
	"taq/internal/sim"
)

func TestCounterRecordAndRead(t *testing.T) {
	reg := NewRegistry()
	plain := reg.Counter("taq_test_total", "test")
	vec := reg.CounterVec("taq_test_by_class_total", "test", "class", []string{"a", "b"})

	plain.Inc()
	plain.Add(4)
	vec.IncAt(0)
	vec.AddAt(1, 10)
	vec.IncAt(99) // out of range: dropped, not panicked
	vec.IncAt(-1)

	snap := reg.Snapshot() // sorted: by_class before plain
	if got := snap.Counters[1].Values; len(got) != 1 || got[0] != 5 {
		t.Fatalf("plain = %v, want [5]", got)
	}
	if got := snap.Counters[0].Values; len(got) != 2 || got[0] != 1 || got[1] != 10 {
		t.Fatalf("vec = %v, want [1 10]", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "x")
	h := reg.Histogram("y", "y", DelayBuckets())
	c.Inc()
	c.Add(3)
	c.IncAt(1)
	h.Observe(sim.Second)
	h.ObserveAt(2, sim.Second)
	if c != nil || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if got := snap.AppendText(nil); len(got) != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", got)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("taq_dup_total", "a")
	reg.Counter("taq_dup_total", "b")
}

func TestHistogramBucketPlacement(t *testing.T) {
	reg := NewRegistry()
	bounds := []sim.Time{10, 100, 1000}
	h := reg.Histogram("taq_test_seconds", "test", bounds)

	// Prometheus le semantics: a value lands in the first bucket whose
	// bound is >= the value; beyond the last bound is the +Inf bucket.
	cases := []struct {
		v    sim.Time
		want int
	}{
		{0, 0}, {10, 0}, {11, 1}, {100, 1}, {101, 2}, {1000, 2}, {1001, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := reg.Snapshot()
	row := snap.Histograms[0].Buckets[0]
	wantRow := []uint64{2, 2, 2, 1}
	for i, w := range wantRow {
		if row[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (row %v)", i, row[i], w, row)
		}
	}
	if snap.Histograms[0].Counts[0] != 7 {
		t.Fatalf("count = %d, want 7", snap.Histograms[0].Counts[0])
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += int64(c.v)
	}
	if snap.Histograms[0].Sums[0] != wantSum {
		t.Fatalf("sum = %d, want %d", snap.Histograms[0].Sums[0], wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	bounds := []sim.Time{10, 100, 1000}
	h := reg.Histogram("taq_q_seconds", "test", bounds)
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 90 observations in bucket 0, 9 in bucket 1, 1 in overflow.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(5000)
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("p50 = %d, want 10 (bucket 0 upper bound)", got)
	}
	if got := h.Quantile(0.95); got != 100 {
		t.Fatalf("p95 = %d, want 100", got)
	}
	// p100 falls in the overflow bucket, which reports the last bound.
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d, want 1000 (last bound)", got)
	}

	// Snapshot quantiles agree with the live read.
	hs := &reg.Snapshot().Histograms[0]
	if got := hs.Quantile(0, 0.5); got != 10 {
		t.Fatalf("snapshot p50 = %d, want 10", got)
	}
	if got := hs.Quantile(0, 0.95); got != 100 {
		t.Fatalf("snapshot p95 = %d, want 100", got)
	}
	if got := hs.Quantile(5, 0.5); got != 0 {
		t.Fatalf("out-of-range row quantile = %d, want 0", got)
	}
}

// TestHistogramAgreesWithCDFBuckets pins the shared-boundary contract:
// projecting the same samples through metrics.CDF.BucketCounts and
// through a live obs histogram built from the same metrics.LogBuckets
// bounds must land every sample in the same bucket, so figure sweeps
// and /metrics report the same distribution. (The test lives here
// because metrics must not import obs.)
func TestHistogramAgreesWithCDFBuckets(t *testing.T) {
	secs := metrics.LogBuckets(1e-4, 4, 24)
	reg := NewRegistry()
	h := reg.Histogram("taq_agree_seconds", "test", TimeBuckets(secs))
	var cdf metrics.CDF

	samples := []float64{0, 5e-5, 1e-4, 3.1e-4, 1e-3, 0.02, 0.5, 7, 100, 1e5}
	for _, s := range samples {
		cdf.Add(s)
		h.Observe(sim.FromSeconds(s))
	}
	want := cdf.BucketCounts(secs)
	got := reg.Snapshot().Histograms[0].Buckets[0]
	if len(want) != len(got) {
		t.Fatalf("bucket count mismatch: cdf %d, histogram %d", len(want), len(got))
	}
	for i := range want {
		if uint64(want[i]) != got[i] {
			t.Fatalf("bucket %d: cdf %d, histogram %d", i, want[i], got[i])
		}
	}
}

func TestSnapshotTextFormat(t *testing.T) {
	reg := NewRegistry()
	// Register out of name order to prove the exposition sorts, the
	// owner-read family among the others.
	reg.CounterVec("taq_z_total", "z counter", "class", []string{"a", "b"})
	var owned [2]uint64
	reg.CounterVecFunc("taq_k_total", "k counter", "class", []string{"a", "b"},
		func(dst []uint64) { copy(dst, owned[:]) })
	c := reg.Counter("taq_a_total", "a counter")
	owned[1] = 9 // read at Snapshot, not at registration
	h := reg.HistogramVec("taq_m_seconds", "m histogram",
		[]sim.Time{sim.Second / 8, sim.Second}, "size", []string{"short", "long"})
	c.Add(7)
	h.ObserveAt(0, sim.Second/10)
	h.ObserveAt(0, 2*sim.Second)
	h.ObserveAt(1, sim.Second)

	got := string(reg.Snapshot().AppendText(nil))
	want := `# HELP taq_a_total a counter
# TYPE taq_a_total counter
taq_a_total 7
# HELP taq_k_total k counter
# TYPE taq_k_total counter
taq_k_total{class="a"} 0
taq_k_total{class="b"} 9
# HELP taq_z_total z counter
# TYPE taq_z_total counter
taq_z_total{class="a"} 0
taq_z_total{class="b"} 0
# HELP taq_m_seconds m histogram
# TYPE taq_m_seconds histogram
taq_m_seconds_bucket{size="short",le="0.125"} 1
taq_m_seconds_bucket{size="short",le="1"} 1
taq_m_seconds_bucket{size="short",le="+Inf"} 2
taq_m_seconds_sum{size="short"} 2.1
taq_m_seconds_count{size="short"} 2
taq_m_seconds_bucket{size="long",le="0.125"} 0
taq_m_seconds_bucket{size="long",le="1"} 1
taq_m_seconds_bucket{size="long",le="+Inf"} 1
taq_m_seconds_sum{size="long"} 1
taq_m_seconds_count{size="long"} 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// WriteText produces the same bytes.
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if buf.String() != want {
		t.Fatal("WriteText differs from AppendText")
	}
}

func TestAppendSeconds(t *testing.T) {
	cases := []struct {
		t    sim.Time
		want string
	}{
		{0, "0"},
		{1, "0.000000001"},
		{125_000, "0.000125"},
		{sim.Second, "1"},
		{sim.Second + sim.Second/2, "1.5"},
		{31 * sim.Second, "31"},
		{-sim.Second / 4, "-0.25"},
	}
	for _, c := range cases {
		if got := string(appendSeconds(nil, c.t)); got != c.want {
			t.Errorf("appendSeconds(%d) = %q, want %q", c.t, got, c.want)
		}
	}
}

func buildShardRegistry(drops, obsns int) *Registry {
	reg := NewRegistry()
	d := reg.CounterVec("taq_drops_total", "drops", "class", []string{"a", "b"})
	h := reg.Histogram("taq_delay_seconds", "delay", []sim.Time{10, 100})
	for i := 0; i < drops; i++ {
		d.IncAt(i % 2)
	}
	for i := 0; i < obsns; i++ {
		h.Observe(sim.Time(i * 30))
	}
	return reg
}

func TestSnapshotMerge(t *testing.T) {
	a := buildShardRegistry(4, 3).Snapshot()
	b := buildShardRegistry(2, 5).Snapshot()
	a.Merge(b)
	if got := a.Counters[0].Values[0] + a.Counters[0].Values[1]; got != 6 {
		t.Fatalf("merged drops = %d, want 6", got)
	}
	if got := a.Histograms[0].Counts[0]; got != 8 {
		t.Fatalf("merged count = %d, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatched merge did not panic")
		}
	}()
	other := NewRegistry()
	other.Counter("taq_other_total", "x")
	a.Merge(other.Snapshot())
}

func TestSameSequenceByteIdenticalExposition(t *testing.T) {
	a := string(buildShardRegistry(13, 7).Snapshot().AppendText(nil))
	b := string(buildShardRegistry(13, 7).Snapshot().AppendText(nil))
	if a != b {
		t.Fatal("same event sequence must yield byte-identical expositions")
	}
	if !strings.Contains(a, "taq_delay_seconds_bucket") {
		t.Fatalf("exposition missing histogram series:\n%s", a)
	}
}

func TestRecordPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("taq_alloc_total", "test", "class", []string{"a", "b"})
	h := reg.Histogram("taq_alloc_seconds", "test", DelayBuckets())
	var nilC *Counter
	var nilH *Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.IncAt", func() { c.IncAt(1) }},
		{"Counter.Add", func() { c.Add(2) }},
		{"Histogram.Observe", func() { h.Observe(sim.Second / 3) }},
		{"Histogram.ObserveAt", func() { h.ObserveAt(0, sim.Second) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Histogram.Observe", func() { nilH.Observe(sim.Second) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", tc.name, n)
		}
	}
}

// TestMergedSnapshot covers the variadic shard-merge helper the
// sharded middlebox reads through: nil registries (shards without
// metrics) are skipped, totals are the per-shard sums, and the merged
// snapshot renders to the usual exposition.
func TestMergedSnapshot(t *testing.T) {
	a := buildShardRegistry(4, 3)
	b := buildShardRegistry(2, 5)
	s := MergedSnapshot(a, nil, b, nil)
	if got := s.Counters[0].Values[0] + s.Counters[0].Values[1]; got != 6 {
		t.Fatalf("merged drops = %d, want 6", got)
	}
	if got := s.Histograms[0].Counts[0]; got != 8 {
		t.Fatalf("merged histogram count = %d, want 8", got)
	}
	// The input snapshots must be untouched: MergedSnapshot folds into
	// its own copy, not into a's live cells.
	if got := a.Snapshot().Counters[0].Values[0] + a.Snapshot().Counters[0].Values[1]; got != 4 {
		t.Fatalf("source registry mutated by merge: drops = %d, want 4", got)
	}
	var buf strings.Builder
	if err := s.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "taq_drops_total{class=\"a\"}") {
		t.Fatalf("merged exposition missing counter series:\n%s", buf.String())
	}
	if got := MergedSnapshot(); len(got.Counters) != 0 || len(got.Histograms) != 0 {
		t.Fatal("MergedSnapshot() of nothing must be empty, not nil families")
	}
	if got := MergedSnapshot(nil, nil); len(got.Counters) != 0 {
		t.Fatal("MergedSnapshot of only nil registries must be empty")
	}
}
