package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"taq/internal/sim"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGenConfig()
	recs := Generate(cfg)
	if len(recs) == 0 {
		t.Fatal("empty log")
	}
	// Sorted by time, inside the window.
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time }) {
		t.Error("log not sorted")
	}
	for _, r := range recs {
		if r.Time < 0 || r.Time >= cfg.Duration {
			t.Fatalf("record outside window: %v", r.Time)
		}
		if r.Size < cfg.MinSize || r.Size > cfg.MaxSize {
			t.Fatalf("size out of bounds: %d", r.Size)
		}
	}
	// Client coverage near the configured population.
	if c := Clients(recs); c < cfg.Clients*9/10 {
		t.Errorf("clients = %d, want ≈%d", c, cfg.Clients)
	}
	// Aggregate volume in the right ballpark (paper: ~1.5 GB over 2h;
	// heavy tails make this noisy — accept a broad band).
	gb := float64(TotalBytes(recs)) / (1 << 30)
	if gb < 0.2 || gb > 30 {
		t.Errorf("total = %.2f GB, want O(1 GB)", gb)
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	cfg := DefaultGenConfig()
	recs := Generate(cfg)
	small, large := 0, 0
	for _, r := range recs {
		if r.Size < 100*1024 {
			small++
		}
		if r.Size > 1<<20 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("size distribution not heavy-tailed: %d small, %d large of %d", small, large, len(recs))
	}
	// Most objects are small (web-like).
	if float64(small)/float64(len(recs)) < 0.8 {
		t.Errorf("small-object fraction %f, want ≥0.8", float64(small)/float64(len(recs)))
	}
	// Sizes must span several orders of magnitude.
	minS, maxS := math.MaxInt, 0
	for _, r := range recs {
		if r.Size < minS {
			minS = r.Size
		}
		if r.Size > maxS {
			maxS = r.Size
		}
	}
	if math.Log10(float64(maxS)/float64(minS)) < 3 {
		t.Errorf("size span %d..%d too narrow", minS, maxS)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	cfg.Seed = 2
	c := Generate(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateDegenerate(t *testing.T) {
	if Generate(GenConfig{}) != nil {
		t.Error("zero config should generate nil")
	}
}

func TestRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = 60 * sim.Second
	cfg.Clients = 10
	recs := Generate(cfg)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Client != recs[i].Client || got[i].Size != recs[i].Size {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		// Time round-trips through microsecond-precision text.
		if d := got[i].Time - recs[i].Time; d < -sim.Microsecond || d > sim.Microsecond {
			t.Fatalf("record %d time drift %v", i, d)
		}
	}
}

func TestParseErrorsAndComments(t *testing.T) {
	if _, err := Parse(strings.NewReader("not a record\n")); err == nil {
		t.Error("malformed line accepted")
	}
	recs, err := Parse(strings.NewReader("# comment\n\n1.5 3 1000\n"))
	if err != nil || len(recs) != 1 || recs[0].Client != 3 || recs[0].Size != 1000 {
		t.Errorf("parse = %v, %v", recs, err)
	}
}

// TestParseRejectsOutOfRange holds Parse to the records the replay can
// represent: each bad line is refused with its line number, and the
// edges of each range are accepted.
func TestParseRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"0 0 1", true},
		{"1.5 2147483647 1", true},
		{"9007199.254740 3 1000", true},
		{"-0.000001 3 1000", false},
		{"NaN 3 1000", false},
		{"Inf 3 1000", false},
		{"-Inf 3 1000", false},
		{"1e300 3 1000", false},
		{"9007199.254741 3 1000", false},
		{"1.5 -1 1000", false},
		{"1.5 2147483648 1000", false},
		{"1.5 3 0", false},
		{"1.5 3 -5", false},
	} {
		recs, err := Parse(strings.NewReader("# header\n" + tc.line + "\n"))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%q rejected: %v", tc.line, err)
		case tc.ok && len(recs) != 1:
			t.Errorf("%q gave %d records", tc.line, len(recs))
		case !tc.ok && err == nil:
			t.Errorf("%q accepted as %+v", tc.line, recs)
		case !tc.ok && !strings.Contains(err.Error(), "line 2:"):
			t.Errorf("%q: error %q does not name line 2", tc.line, err)
		}
	}
}

// FuzzParse feeds Parse arbitrary text. It must never panic; every
// record it accepts must be in range; and what it accepts must survive
// Write, Parse, Write byte for byte.
func FuzzParse(f *testing.F) {
	f.Add("1.5 3 1000\n")
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Time < 0 || r.Time >= maxTime || r.Client < 0 || r.Client > math.MaxInt32 || r.Size < 1 {
				t.Fatalf("accepted an out-of-range record %+v", r)
			}
		}
		var first bytes.Buffer
		if err := Write(&first, recs); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Parse rejects what Write wrote: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Write(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write, Parse, Write is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestWindow(t *testing.T) {
	recs := []Record{
		{Time: 1 * sim.Second}, {Time: 5 * sim.Second}, {Time: 9 * sim.Second},
	}
	got := Window(recs, 2*sim.Second, 9*sim.Second)
	if len(got) != 1 || got[0].Time != 5*sim.Second {
		t.Errorf("Window = %v", got)
	}
}
