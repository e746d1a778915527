package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"taq"
	"taq/internal/queue"
)

// tiny is the scale the tests run every workload at: a few hundred
// milliseconds for all six, untraced and traced.
const tiny = 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func checkMetrics(t *testing.T, res wlResult, want []string) {
	t.Helper()
	if !res.Correct {
		t.Errorf("%s: checks failed: %v", res.Workload, res.Errors)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: attempted %d failed %d, want some attempted and none failed", res.Workload, res.Attempted, res.Failed)
	}
	got := map[string]value{}
	for _, m := range res.Metrics {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", res.Workload, m.Name)
		}
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", res.Workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, m.Value)
		}
		got[m.Name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: metric %s missing", res.Workload, n)
		}
	}
}

func TestEveryWorkloadUntraced(t *testing.T) {
	var want []string
	for _, d := range endToEndDefs {
		want = append(want, d.name)
	}
	for _, spec := range specs {
		res := runUntraced(spec, 1, tiny)
		checkMetrics(t, res, want)
		if spec.name != "emu-shards" && res.Digest == "" {
			t.Errorf("%s: no sim_digest", spec.name)
		}
		for _, d := range endToEndDefs {
			if v, _ := res.metric(d.name); d.gated && v.Value <= 0 {
				t.Errorf("%s: gated metric %s = %v, must never be zero", spec.name, d.name, v.Value)
			}
		}
	}
}

func TestEveryWorkloadTraced(t *testing.T) {
	outDir = t.TempDir()
	var want []string
	for _, d := range perLayerDefs {
		want = append(want, d.name)
	}
	for _, d := range endToEndDefs {
		if !d.gated {
			want = append(want, d.name)
		}
	}
	for _, spec := range specs {
		res := runTraced(spec, 1, tiny)
		checkMetrics(t, res, want)
		sum := 0.0
		for _, l := range cpuLayers {
			v, _ := res.metric("cpu_share." + l)
			sum += v.Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v, want 1", spec.name, sum)
		}
	}
}

func TestSeedsChangeTheDigest(t *testing.T) {
	spec, _ := specByName("mbox-hot")
	a, b := runUntraced(spec, 1, tiny), runUntraced(spec, 2, tiny)
	if a.Digest == b.Digest {
		t.Errorf("seeds 1 and 2 gave the same sim_digest %s", a.Digest)
	}
	if again := runUntraced(spec, 1, tiny); again.Digest != a.Digest {
		t.Errorf("seed 1 gave sim_digest %s then %s", a.Digest, again.Digest)
	}
}

// nullDiscipline drops every packet on arrival: nothing of the program
// under test runs, so what allocates is the load generator alone.
type nullDiscipline struct{ queue.DropHook }

func (n *nullDiscipline) Enqueue(p *taq.Packet)    { n.Drop(p) }
func (*nullDiscipline) Dequeue() *taq.Packet       { return nil }
func (*nullDiscipline) Len() int                   { return 0 }
func (*nullDiscipline) Bytes() int                 { return 0 }
func (*nullDiscipline) ObserveReverse(*taq.Packet) {}

func TestGeneratorAllocatesNothing(t *testing.T) {
	for _, spread := range []bool{false, true} {
		w := newMbox(4*hotWindow, 1, spread)
		w.discipline = func(*taq.Engine) middlebox { return &nullDiscipline{} }
		w.build(1, newHostRef())
		// The runtime may allocate in the background during one
		// repetition; not during each of three.
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			o := w.rep(int64(i+1), nil)
			o.conserve()
			if len(o.errs) > 0 || o.offered == 0 {
				t.Fatalf("spread=%v: offered %d, errors %v", spread, o.offered, o.errs)
			}
			least = min(least, o.mallocs)
		}
		if least != 0 {
			t.Errorf("spread=%v: generator made %d allocations over a null discipline, want 0", spread, least)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "cpu_ns_per_pkt", bound: 0.08}
	higher := metricDef{name: "pkts_per_wall_s", higher: true, bound: 0.08}
	floored := metricDef{name: "setup_s", bound: 0.25, floor: 0.2}
	exact := metricDef{name: "ops_failed_frac"}
	tight := func(v float64) value { return median("m", []float64{v * 0.99, v, v * 1.01}) }
	loose := func(v float64) value { return median("m", []float64{v * 0.8, v, v * 1.2}) }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b value
		want string
	}{
		{"within bound", lower, tight(100), tight(105), verdictOK},
		{"beyond bound", lower, tight(100), tight(115), verdictRegress},
		{"better beyond bound", lower, tight(100), tight(80), verdictImproved},
		{"higher is better", higher, tight(100), tight(85), verdictRegress},
		{"higher and rose", higher, tight(100), tight(120), verdictImproved},
		{"spread wider than bound", lower, loose(100), loose(115), verdictUnresolved},
		{"wide spread, same median", lower, loose(100), loose(100), verdictUnresolved},
		{"wide spread but every rep worse", lower, loose(100), loose(200), verdictRegress},
		{"wide spread but every rep better", lower, loose(200), loose(100), verdictImproved},
		{"under the absolute floor", floored, single("m", 0.1), single("m", 0.25), verdictOK},
		{"over floor and bound", floored, single("m", 1), single("m", 1.3), verdictRegress},
		{"zero baseline stays zero", exact, single("m", 0), single("m", 0), verdictOK},
		{"zero baseline rises", exact, single("m", 0), single("m", 0.001), verdictRegress},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	run := func(pps float64, digest string) *runFile {
		return &runFile{Workloads: []wlResult{{
			Workload: "mbox-hot", Digest: digest,
			Metrics: []value{median("norm_pkts_per_s", []float64{pps * 0.99, pps, pps * 1.01}), single("heap_mb", 2)},
		}}}
	}
	for _, c := range []struct {
		name string
		a, b *runFile
		code int
		want string
	}{
		{"same", run(1000, "aa"), run(1000, "aa"), 0, "same"},
		{"slower", run(1000, "aa"), run(700, "aa"), 1, verdictRegress},
		{"digest moved", run(1000, "aa"), run(1000, "ab"), 1, "DIFFERS"},
		{"workload gone", run(1000, "aa"), &runFile{}, 1, "missing"},
	} {
		var out bytes.Buffer
		if code := compareRuns(&out, c.a, c.b); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit code %d, want %d, and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

// pb builds protobuf messages for the synthetic profile.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// syntheticProfile encodes stacks (function names, leaf first) with
// their sample counts the way runtime/pprof would, packing two frames
// into one location when the second name starts with "inline:".
func syntheticProfile(t *testing.T, stacks [][]string, counts []uint64, packed bool) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	funcID := map[string]uint64{}
	var top pb
	locID := uint64(0)
	for i, st := range stacks {
		var sample, locs pb
		for j := 0; j < len(st); j++ {
			names := []string{st[j]}
			for j+1 < len(st) && strings.HasPrefix(st[j+1], "inline:") {
				j++
				names = append(names, strings.TrimPrefix(st[j], "inline:"))
			}
			locID++
			var loc pb
			loc.uint(locationID, locID)
			for _, n := range names {
				if _, ok := funcID[n]; !ok {
					strIdx[n] = uint64(len(strs))
					strs = append(strs, n)
					funcID[n] = uint64(len(funcID) + 1)
					var fn pb
					fn.uint(functionID, funcID[n])
					fn.uint(functionName, strIdx[n])
					top.bytes(profFunction, fn.b)
				}
				var line pb
				line.uint(lineFunctionID, funcID[n])
				loc.bytes(locationLine, line.b)
			}
			top.bytes(profLocation, loc.b)
			if packed {
				locs.varint(locID)
			} else {
				sample.uint(sampleLocationID, locID)
			}
		}
		if packed {
			sample.bytes(sampleLocationID, locs.b)
			var vals pb
			vals.varint(counts[i])
			vals.varint(counts[i] * 10_000_000)
			sample.bytes(sampleValue, vals.b)
		} else {
			sample.uint(sampleValue, counts[i])
		}
		top.bytes(profSample, sample.b)
	}
	for _, s := range strs {
		top.bytes(profStrings, []byte(s))
	}
	top.uint(9, 12345) // time_nanos: a field the reader must skip
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(top.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	stacks := [][]string{
		// The map iteration under BestVictim is core's, not the runtime's.
		{"runtime.mapiternext", "taq/internal/core.(*classFIFO).BestVictim", "taq/internal/core.(*TAQ).Enqueue", "taq/internal/link.(*Link).Enqueue", "taq/internal/sim.(*Engine).Step", "main.runNetwork"},
		// The deepest taq frame wins over the layers that called it.
		{"runtime.mallocgc", "taq/internal/tcp.(*Sender).sendSegment", "inline:taq/internal/tcp.(*Sender).trySend", "taq/internal/sim.(*Engine).Step", "taq.(*Network).Run", "main.main"},
		// A layer outside the list does not hide the one below it.
		{"taq/internal/packet.(*Packet).String", "taq/internal/topology.(*Network).deliverForward", "main.main"},
		{"taq/internal/obs/obshttp.serve", "net/http.(*conn).serve"},
		// taq frames but none in a listed layer.
		{"taq/internal/trace.Generate", "taq.GenerateTrace", "main.main"},
		// Only the harness.
		{"main.(*driver).do", "main.(*mbox).rep", "main.main"},
		{"time.Now", "taq/bench.(*tracer).clock", "taq/bench.runTraced"},
		// Neither: background runtime work, unknown packages.
		{"runtime.gcBgMarkWorker"},
		{"example.com/unknown.Work", "runtime.goexit"},
	}
	counts := []uint64{40, 20, 10, 5, 5, 8, 2, 7, 3}
	want := map[string]float64{"core": 0.40, "tcp": 0.20, "topology": 0.10, "obs": 0.05, "other": 0.05, "harness": 0.10, "runtime_bg": 0.10}
	for _, packed := range []bool{true, false} {
		shares, n, err := cpuSharesOf(syntheticProfile(t, stacks, counts, packed))
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 {
			t.Errorf("packed=%v: %d samples, want 100", packed, n)
		}
		sum := 0.0
		for l, s := range shares {
			sum += s
			if math.Abs(s-want[l]) > 1e-9 {
				t.Errorf("packed=%v: share of %s = %v, want %v", packed, l, s, want[l])
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("packed=%v: shares sum to %v, want 1", packed, sum)
		}
	}
	if _, _, err := cpuSharesOf([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the metric and
// workload tables saying the same thing.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var man struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(man.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := man.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), specs have %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", s.name, len(s.why))
		}
	}
	var gated, layered []metricDef
	for _, d := range endToEndDefs {
		if d.gated {
			gated = append(gated, d)
		}
	}
	layered = append(layered, perLayerDefs...)
	for _, d := range endToEndDefs {
		if !d.gated {
			layered = append(layered, d)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, tables have %s %s %s", kind, i, g, d.name, d.unit, better(d))
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json differs from the table's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
			if len(d.unit) > 16 || len(d.name) > 64 || !nameRE.MatchString(d.name) {
				t.Errorf("%s %s: name or unit outside the manifest's limits", kind, d.name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, gated, true)
	check("per_layer", man.PerLayer, layered, false)
}
