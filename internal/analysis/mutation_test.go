package analysis

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// mutation is one seeded violation of the real tree — a few textual
// replacements in one file — and who catches it. The table is the
// suite's decision procedure (docs/static-analysis.md has the prose): an
// analyzer stays only while some row names it as the first catcher in
// the order compiler, go vet, tier-1 tests, taqvet. When an analyzer is
// deleted its rows stay and their catcher changes; a row is never
// dropped to make a deletion pass.
type mutation struct {
	// name is "<analyzer or directive the row is evidence for>.<seed>";
	// rows of deleted analyzers keep their old prefix.
	name string
	file string // module-relative
	// edits are old, new pairs; each old occurs exactly once in file
	// when its turn comes.
	edits []string
	load  []string // Load patterns; default is the file's package
	// fires is what taqvet reports on the mutated tree, sorted: analyzer
	// names, "audit" (stale or malformed directive), "build" (the copy no
	// longer loads), and — judged only when load is ./... — "roots" and
	// "annotations" (drift from the committed docs/ inventories).
	fires []string
	// first is the first catcher: "build", "vet", "test <Test>",
	// "crash <import path>" (a test binary that fails naming no test),
	// "timeout" (the tests hang until their -timeout, and nothing fails
	// by name or crashes), or an element of fires. TestRepoIsClean and
	// this file's tests do not count as tests — they are taqvet.
	first string
	// hangs marks a seed under which tier-1 tests eat gigabytes until
	// they time out: the test stage is skipped, and taqvet is first.
	hangs bool
}

// importTime is the edit that gives a seed the "time" import it needs.
var importTime = []string{"import (\n", "import (\n\t\"time\"\n"}

// poolMap is the helper the maprange seeds on HangTracker range: the
// pools' longest hangs as a map keyed by pool id.
const poolMap = "func (h *HangTracker) byPool() map[packet.PoolID]sim.Time {\n\tm := make(map[packet.PoolID]sim.Time, h.n)\n" +
	"\tfor i, p := range h.pools {\n\t\tif p.started {\n\t\t\tm[packet.PoolID(i)] = p.max\n\t\t}\n\t}\n\treturn m\n}\n\n"

// wholeModule is the load of rows that need the whole-program view: the
// hot closure, cross-package ownership, the inventories.
var wholeModule = []string{"./..."}

var mutations = []mutation{
	// wallclock: a host-clock read on the path of every packet and one on
	// the SYN-retry branch, which change no result any test pins, and the
	// process-global rand source in RED's early-drop draw, which moves
	// the RED rows of the suite baseline before taqvet sees it.
	{name: "wallclock.enqueue", file: "internal/core/taq.go",
		edits: append([]string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++\n\t_ = time.Now()\n"}, importTime...),
		fires: []string{"noblock", "wallclock"}, first: "wallclock"},
	{name: "wallclock.synTimeout", file: "internal/tcp/sender.go",
		edits: append([]string{"\ts.synRetries++\n", "\ts.synRetries++\n\t_ = time.Now()\n"}, importTime...),
		fires: []string{"wallclock"}, first: "wallclock"},
	{name: "wallclock.globalRand", file: "internal/queue/red.go",
		edits: []string{"if q.rng.Float64() < pa {", "if rand.Float64() < pa {"},
		fires: []string{"wallclock"}, first: "test TestSuiteMatchesBaseline"},

	// maprange: each seed brings a map back into a deterministic package
	// and ranges it. A count kept in a float over a map of the pools'
	// hangs, and the first pool in map order folded into
	// FractionExceeding with weight zero (the shape only detaint used to
	// see), are order-sensitive in form and read the same on every run.
	// BucketStats' bucket map with its collect-then-sort, as it stood
	// before the buckets became a table, is correct and a finding all the
	// same. Earlier seeds sat on maps that are tables indexed by id now:
	// Network.flows, HangTracker's pools, and the bucket map, whose lost
	// sort the suite baseline saw first.
	{name: "maprange.goodput", file: "internal/metrics/hang.go",
		edits: []string{
			"// NumPools returns", poolMap + "// NumPools returns",
			"\tn := 0\n\tfor _, p := range h.pools {\n\t\tif p.started && p.max >= d {\n", "\tn := 0.0\n\tfor _, m := range h.byPool() {\n\t\tif m >= d {\n",
			"float64(n) / float64(h.n)", "n / float64(h.n)"},
		fires: []string{"maprange"}, first: "maprange"},
	{name: "maprange.sortedIDs", file: "internal/metrics/buckets.go",
		edits: []string{
			"\tvar groups [][]float64\n", "\tgroups := make(map[int][]float64)\n",
			"\t\tfor b >= len(groups) {\n\t\t\tgroups = append(groups, nil)\n\t\t}\n", "",
			"\tout := make([]BucketStat, 0, len(groups))\n\tfor k, vals := range groups {\n\t\tif len(vals) == 0 {\n\t\t\tcontinue\n\t\t}\n",
			"\tkeys := make([]int, 0, len(groups))\n\tfor k := range groups {\n\t\tkeys = append(keys, k)\n\t}\n\tsort.Ints(keys)\n\tout := make([]BucketStat, 0, len(keys))\n\tfor _, k := range keys {\n\t\tvals := groups[k]\n"},
		fires: []string{"maprange"}, first: "maprange"},
	{name: "detaint.firstMatch", file: "internal/metrics/hang.go",
		edits: []string{
			"// NumPools returns", poolMap + "func (h *HangTracker) anyPool() packet.PoolID {\n\tfor pool := range h.byPool() {\n\t\treturn pool\n\t}\n\treturn 0\n}\n\n// NumPools returns",
			// Value-neutral on purpose: the order dependence is the bug.
			"\treturn float64(n) / float64(h.n)\n", "\treturn float64(n)/float64(h.n) + 0*float64(h.anyPool())\n"},
		fires: []string{"maprange"}, first: "maprange"},

	// timerleak (deleted): a Schedule handle dropped in a type whose
	// Stop must cancel it. The scan timer's leaks only when Stop comes
	// before the first scan, the feedback timer's after the first
	// report; the root package's TestTimerOwnersQuiesce runs both.
	{name: "timerleak.scan", file: "internal/core/taq.go",
		edits: []string{"t.scanTimer = t.run.Schedule(scanInterval, tick)", "t.run.Schedule(scanInterval, tick)"},
		first: "test TestTimerOwnersQuiesce"},
	{name: "timerleak.feedback", file: "internal/tfrc/tfrc.go",
		edits: []string{"\n\tr.fbTimer = r.run.Reschedule(r.fbTimer, r.rtt, r.sendFeedback)\n}", "\n\tr.run.Schedule(r.rtt, r.sendFeedback)\n}"},
		first: "test TestTimerOwnersQuiesce"},

	// timerown (deleted): Cancel through a handle Reschedule took over
	// breaks every TCP run when it is the RTO timer and the SYN tests
	// when it is the SYN timer; a TFRC no-feedback timer whose new handle
	// is dropped stays pending after Stop (the row keeps its name from the
	// delayed-ack timer it first seeded, deleted with delayed acks).
	{name: "timerown.armRTO", file: "internal/tcp/sender.go",
		edits: []string{"\ts.rtoTimer = s.run.Reschedule(s.rtoTimer, s.effectiveRTO(), s.rtoFn)\n",
			"\told := s.rtoTimer\n\ts.rtoTimer = s.run.Reschedule(old, s.effectiveRTO(), s.rtoFn)\n\told.Cancel()\n"},
		first: "test TestGoldenDumbbellTraces"},
	{name: "timerown.synTimer", file: "internal/tcp/sender.go",
		edits: []string{"\ts.synTimer = s.run.Reschedule(s.synTimer, timeout, s.synTimeoutFn)\n",
			"\told := s.synTimer\n\ts.synTimer = s.run.Reschedule(old, timeout, s.synTimeoutFn)\n\tif rexmit {\n\t\told.Cancel()\n\t}\n"},
		first: "test TestSynRetry"},
	{name: "timerown.delTimer", file: "internal/tfrc/tfrc.go",
		edits: []string{"s.nfTimer = s.run.Reschedule(s.nfTimer, s.nfInterval, s.onNoFeedback)", "s.run.Reschedule(s.nfTimer, s.nfInterval, s.onNoFeedback)"},
		first: "test TestTimerOwnersQuiesce"},

	// simtime: raw float seconds truncated to nanoseconds in TFRC pacing
	// (the simulation spins at one virtual instant until memory runs out),
	// and a bare 100 where 100 ms was meant in the flight recorder's
	// default check interval (the row keeps its name from the delayed-ack
	// timeout it first seeded, deleted with delayed acks).
	{name: "simtime.pacing", file: "internal/tfrc/tfrc.go", hangs: true,
		edits: []string{"gap := sim.FromSeconds(float64(s.cfg.MSS) / s.rate)", "gap := sim.Time(float64(s.cfg.MSS) / s.rate)"},
		fires: []string{"simtime"}, first: "simtime"},
	{name: "simtime.delack", file: "internal/obs/flight.go",
		edits: []string{"interval = sim.Second / 10", "interval = 100"},
		fires: []string{"simtime"}, first: "simtime"},

	// noalloc: an escaping new() on every packet is also an AllocsPerRun
	// failure, and so is a copy-compaction two calls below Dequeue that
	// runs once per 64 pops — the whole-dumbbell allocation count sees
	// it. A make() on the policy-drop branch is not: no steady-state
	// harness reaches that branch. The make's result goes to a package
	// variable, so nothing a test pins changes.
	{name: "noalloc.enqueue", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++\n\tlastArrival = new(uint64)\n",
			"// Enqueue implements queue.Discipline.", "var lastArrival *uint64\n\n// Enqueue implements queue.Discipline."},
		fires: []string{"noalloc"}, first: "test TestHotpathRootsZeroAlloc"},
	{name: "noalloc.policyDrop", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.PolicyDrops++\n", "\tt.Stats.PolicyDrops++\n\tpolicyScratch = make([]byte, int(class))\n",
			"// dropPolicy records", "var policyScratch []byte\n\n// dropPolicy records"},
		fires: []string{"noalloc"}, first: "noalloc"},
	{name: "noalloc.popCompact", file: "internal/core/queues.go", load: wholeModule,
		edits: []string{"f.items = append(f.items[:0], f.items[f.head:]...)", "f.items = append([]item(nil), f.items[f.head:]...)"},
		fires: []string{"noalloc"}, first: "test TestDumbbellPacketPathAllocatesNothing"},

	// noblock: a mutex on every packet, and one reached through a callee
	// on the policy-drop branch (the second row keeps its name from the
	// aggregator accessor it first called, deleted in PR 25).
	{name: "noblock.enqueue", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.agg.noteArrival()\n", "\tt.agg.noteArrival()\n\tt.agg.admMu.Lock()\n\tt.agg.admMu.Unlock()\n"},
		fires: []string{"noblock"}, first: "noblock"},
	{name: "noblock.admissionCounts", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.PolicyDrops++\n", "\tt.Stats.PolicyDrops++\n\tt.agg.waitingPools()\n"},
		fires: []string{"noblock", "roots"}, first: "noblock"},

	// lockdiscipline: a guarded field written, and read by a new accessor,
	// without the mutex. go test -race passes both.
	{name: "lockdiscipline.stop", file: "internal/emu/engine.go", load: wholeModule,
		edits: []string{"\te.mu.Lock()\n\tdefer e.mu.Unlock()\n\te.stopped = true\n", "\te.stopped = true\n"},
		fires: []string{"lockdiscipline"}, first: "lockdiscipline"},
	{name: "lockdiscipline.accessor", file: "internal/emu/engine.go", load: wholeModule,
		edits: []string{"// RunFor blocks", "// Stopped reports whether Stop ran.\nfunc (e *Engine) Stopped() bool { return e.stopped }\n\n// RunFor blocks"},
		fires: []string{"lockdiscipline"}, first: "lockdiscipline"},

	// lockorder (deleted): a recursive admMu acquisition, pool expiry
	// reading the waiting count through the locking accessor. Go mutexes
	// are not reentrant, so every run with admission control on deadlocks
	// at its first expiry, and the tier-1 suite hangs until its -timeout.
	// Its first seeds, rollMu and admMu taken in both orders and a
	// recursive rollMu, went with rollMu: the window roll is claimed by a
	// compare-and-swap, and admMu is core's only lock.
	{name: "lockorder.recursive", file: "internal/core/aggregator.go", load: wholeModule,
		edits: []string{"\t\tg.adm.expire(now)\n", "\t\tg.adm.expire(now)\n\t\t_ = g.waitingPools()\n"},
		first: "timeout"},

	// shardown: the tracker parked in a global, handed to a goroutine,
	// passed to another package, and returned by an exported method.
	// The goroutine is joined before scan goes on, so the tracker crosses
	// a goroutine boundary without racing anything a test runs; starting
	// one per scan allocates, and the whole-dumbbell allocation count
	// sees that first.
	{name: "shardown.global", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"// Start schedules the periodic scan.", "var lastTracker *tracker\n\n// Start schedules the periodic scan."},
		fires: []string{"shardown"}, first: "shardown"},
	{name: "shardown.goroutine", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.tracker.scan()\n", "\tdone := make(chan struct{})\n\tgo func(tr *tracker) {\n\t\ttr.scan()\n\t\tclose(done)\n\t}(t.tracker)\n\t<-done\n"},
		fires: []string{"shardown"}, first: "test TestDumbbellPacketPathAllocatesNothing"},
	{name: "shardown.foreign", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.tracker.rec = rec\n", "\tt.tracker.rec = rec\n\tt.run.AfterArg(0, func(tr any) { tr.(*tracker).rec = rec }, t.tracker)\n"},
		fires: []string{"shardown"}, first: "shardown"},
	{name: "shardown.exported", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"// Start schedules the periodic scan.", "// Tracker exposes the shard's tracker.\nfunc (t *TAQ) Tracker() *tracker { return t.tracker }\n\n// Start schedules the periodic scan."},
		fires: []string{"shardown"}, first: "shardown"},

	// atomicfield (deleted): every annotated object is an atomic.* type,
	// so a copy is vet's copylocks and a plain access does not compile.
	{name: "atomic.copy", file: "internal/core/aggregator.go",
		edits: []string{"func (g *Aggregator) noteArrival() { g.winArr.Add(1) }", "func (g *Aggregator) noteArrival() { w := g.winArr; w.Add(1) }"},
		first: "vet"},
	{name: "atomic.plain", file: "internal/core/aggregator.go",
		edits: []string{"func (g *Aggregator) noteArrival() { g.winArr.Add(1) }", "func (g *Aggregator) noteArrival() { g.winArr++ }"},
		fires: []string{"build"}, first: "build"},

	// layout (deleted): core's TestRecordLayout states the pins against
	// the real compiler. The second seed keeps every size and swaps
	// rateEWMA, the hot core's last field, with synBurst, the first warm
	// one; the layout analyzer passed its predecessor.
	{name: "layout.pad", file: "internal/core/tracker.go",
		edits: []string{"type flowInfo struct {\n", "type flowInfo struct {\n\tmutPad uint64\n"},
		first: "test TestRecordLayout"},
	{name: "layout.hotCoreSwap", file: "internal/core/tracker.go",
		edits: []string{"\trateEWMA float64\n", "\tsynBurst sim.Time\n", "\tsynBurst     sim.Time\n", "\trateEWMA     float64\n"},
		first: "test TestRecordLayout"},

	// The directives. //taq:allow and //taq:allow(func): one that
	// suppresses nothing, one misspelled so the finding it hid returns.
	// The misspelled line allow is in the engine, which cmd/taqvet's
	// TestExitCodes runs taqvet on as its clean package.
	{name: "allow.stale", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++ //taq:allow wallclock\n"},
		fires: []string{"audit"}, first: "audit"},
	{name: "allow.typo", file: "internal/sim/engine.go", load: wholeModule,
		edits: []string{"//taq:allow noalloc free-list refill", "//taq:allow noaloc free-list refill"},
		fires: []string{"audit", "noalloc"}, first: "test TestExitCodes"},
	{name: "allow(func).stale", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"//taq:hotpath TAQ per-packet scheduling path (§4.2)\n", "//taq:hotpath TAQ per-packet scheduling path (§4.2)\n//taq:allow(func) noalloc\n"},
		fires: []string{"audit"}, first: "audit"},
	{name: "allow(func).typo", file: "internal/obs/sink.go", load: wholeModule,
		edits: []string{"//taq:allow(func) noalloc builds into the sink's reused flush buffer\nfunc label(", "//taq:alow(func) noalloc builds into the sink's reused flush buffer\nfunc label("},
		fires: []string{"audit", "noalloc"}, first: "audit"},

	// //taq:hotpath dropped, or detached from its function by a blank
	// line: the AllocsPerRun table is keyed by root, so it objects first.
	// The roots inventory is first only for a closure that grows without
	// any root changing — a review gate, not a bug.
	{name: "hotpath.drop", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"//taq:hotpath TAQ per-packet classify/admit/enqueue path (§4)\n", ""},
		fires: []string{"roots"}, first: "test TestHotpathTableMatchesClosure"},
	{name: "hotpath.detached", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"//taq:hotpath TAQ per-packet scheduling path (§4.2)\n", "//taq:hotpath TAQ per-packet scheduling path (§4.2)\n\n"},
		fires: []string{"audit", "roots"}, first: "test TestHotpathTableMatchesClosure"},
	{name: "hotpath.closureGrowth", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.PolicyDrops++\n", "\tt.Stats.PolicyDrops++\n\t_ = t.Bytes()\n"},
		fires: []string{"roots"}, first: "roots"},

	// //taq:shardowned and //taq:crossshard dropped, detached, or added
	// to wave an exported escape through: no analyzer has anything to
	// say, only the annotation inventory moves.
	{name: "shardowned.drop", file: "internal/core/tracker.go", load: wholeModule,
		edits: []string{"//taq:shardowned all per-flow mutable state; the sharded middlebox gives each shard its own tracker\n", ""},
		fires: []string{"annotations"}, first: "annotations"},
	{name: "shardowned.detached", file: "internal/core/flowstore.go", load: wholeModule,
		edits: []string{"//taq:shardowned the flow-record arena; one per shard, never shared\n", "//taq:shardowned the flow-record arena; one per shard, never shared\n\n"},
		fires: []string{"annotations", "audit"}, first: "audit"},
	{name: "crossshard.drop", file: "internal/core/aggregator.go", load: wholeModule,
		edits: []string{"//taq:crossshard per-packet touch on shared state: one atomic add, no lock\nfunc (g *Aggregator) noteArrival", "func (g *Aggregator) noteArrival"},
		fires: []string{"annotations"}, first: "annotations"},
	{name: "crossshard.launder", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"// Start schedules the periodic scan.", "// Tracker exposes the shard's tracker.\n//\n//taq:crossshard debugging\nfunc (t *TAQ) Tracker() *tracker { return t.tracker }\n\n// Start schedules the periodic scan."},
		fires: []string{"annotations"}, first: "annotations"},
}

// copyModule copies the module (everything but dot-directories) into a
// fresh temp dir and returns it.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}

// apply writes the row's edits into the copy and returns the undo.
func (m mutation) apply(t *testing.T, root string) (undo func()) {
	t.Helper()
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := orig
	for i := 0; i+1 < len(m.edits); i += 2 {
		old, new := []byte(m.edits[i]), []byte(m.edits[i+1])
		if n := bytes.Count(mutated, old); n != 1 {
			t.Fatalf("%s: %q occurs %d times, want exactly 1 — the seed site moved; re-aim the row", m.file, old, n)
		}
		mutated = bytes.Replace(mutated, old, new, 1)
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() { os.WriteFile(path, orig, 0o644) }
}

// taqvetFires is what `taqvet -audit` — and, on a whole-module load, the
// two inventory comparisons of TestRepoIsClean — reports on the mutated
// copy. A copy that no longer loads is the compiler's catch: "build".
func (m mutation) taqvetFires(root string) []string {
	patterns := m.load
	if patterns == nil {
		patterns = []string{"./" + filepath.Dir(m.file)}
	}
	pkgs, err := Load(root, patterns...)
	if err != nil {
		return []string{"build"}
	}
	set := make(map[string]bool)
	diags, stale := RunAudit(pkgs, DefaultConfig())
	for _, d := range diags {
		set[d.Analyzer] = true
	}
	if len(stale) > 0 {
		set["audit"] = true
	}
	if patterns[0] == "./..." {
		for _, name := range inventoryDrift(root, pkgs) {
			set[name] = true
		}
	}
	fires := make([]string, 0, len(set))
	for name := range set {
		fires = append(fires, name)
	}
	sort.Strings(fires)
	return fires
}

// TestMutations applies every row to a copy of the module and requires
// taqvet to report exactly what the row records. With TAQ_MUTATION_FULL
// set it also re-derives each row's first catcher by running go build,
// go vet and the whole tier-1 suite on the mutated copy — once unmutated
// first, to bound the rows' test runs, then about a minute a row; this
// is how the first column of the table was filled in (make
// mutations-full runs it):
//
//	TAQ_MUTATION_FULL=1 go test -run TestMutations -timeout 2h -v ./internal/analysis
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the module and re-type-checks a package or all of it once per row")
	}
	// -trimpath keeps the build cache valid across temp dirs.
	t.Setenv("GOFLAGS", "-trimpath")
	root := copyModule(t)
	full := os.Getenv("TAQ_MUTATION_FULL") != ""
	var limit time.Duration
	if full {
		limit = suiteTimeout(t, root)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			defer m.apply(t, root)()
			fires := m.taqvetFires(root)
			if got, want := strings.Join(fires, ","), strings.Join(m.fires, ","); got != want {
				t.Errorf("taqvet reports [%s], the row records [%s]", got, want)
			}
			if full {
				if got := m.firstCatcher(t, root, fires, limit); got != m.first {
					t.Errorf("first catcher is %q, the row records %q", got, m.first)
				}
			}
		})
	}
}

// TestEveryAnalyzerHasEvidence is the keep rule: every analyzer in All()
// is the first catcher of some row, every analyzer and directive word has
// at least two rows seeded against it, and no row names a catcher that
// no longer exists.
func TestEveryAnalyzerHasEvidence(t *testing.T) {
	catchers := map[string]bool{"build": true, "vet": true, "audit": true, "roots": true, "annotations": true}
	for _, a := range All() {
		catchers[a.Name] = true
	}
	firsts, rows := make(map[string]int), make(map[string]int)
	for _, m := range mutations {
		guard, _, _ := strings.Cut(m.name, ".")
		rows[guard]++
		firsts[m.first]++
		for _, c := range append([]string{m.first}, m.fires...) {
			if !catchers[c] && !caughtByTests(c) {
				t.Errorf("row %s names catcher %q, which does not exist", m.name, c)
			}
		}
		if !caughtByTests(m.first) && m.first != "vet" && !slices.Contains(m.fires, m.first) {
			t.Errorf("row %s: first catcher %q is not among what taqvet reports %v", m.name, m.first, m.fires)
		}
	}
	for _, a := range All() {
		if firsts[a.Name] == 0 {
			t.Errorf("%s is the first catcher of no row: delete it, or commit the seed only it catches", a.Name)
		}
		if rows[a.Name] < 2 {
			t.Errorf("%s has %d mutation rows, want at least 2", a.Name, rows[a.Name])
		}
	}
	for word := range directiveWords {
		if rows[word] < 2 {
			t.Errorf("//taq:%s has %d mutation rows, want at least 2", word, rows[word])
		}
	}
}

// notTaqvet skips the tests that are taqvet, not tier-1 tests.
const notTaqvet = "^(TestRepoIsClean|TestMutations)$"

var (
	failedTestRE = regexp.MustCompile(`(?m)^\s*--- FAIL: (\w+)`)
	pkgResultRE  = regexp.MustCompile(`(?m)^(ok|FAIL|\?) *\t(\S+)(?:\t(\S+)s)?.*$`)
)

// testRun is what the output of one go test over several packages
// says failed.
type testRun struct {
	tests    []string // tests that printed a --- FAIL line
	pkgs     []string // the packages those tests are in
	crashed  []string // packages that failed naming no test, not by -timeout
	timedOut []string // packages whose test binary hit -timeout
	// took is each package's run time, from its result line.
	took map[string]time.Duration
}

// parseGoTest reads go test output. Each package's output ends in its
// result line ("ok", "FAIL" or "?", a tab, the import path), and go
// test prints each package's output whole, so the text since the
// previous result line is that package's. A test binary that panics on
// a goroutine of its own fails without a --- FAIL line: that is a crash.
func parseGoTest(out string) testRun {
	var r testRun
	prev := 0
	for _, loc := range pkgResultRE.FindAllStringSubmatchIndex(out, -1) {
		seg, verdict, pkg := out[prev:loc[0]], out[loc[2]:loc[3]], out[loc[4]:loc[5]]
		prev = loc[1]
		if loc[6] >= 0 {
			if secs, err := strconv.ParseFloat(out[loc[6]:loc[7]], 64); err == nil {
				if r.took == nil {
					r.took = make(map[string]time.Duration)
				}
				r.took[pkg] = time.Duration(secs * float64(time.Second))
			}
		}
		if verdict != "FAIL" {
			continue
		}
		names := failedTestRE.FindAllStringSubmatch(seg, -1)
		for _, mm := range names {
			r.tests = append(r.tests, mm[1])
		}
		timedOut := strings.Contains(seg, "panic: test timed out")
		switch {
		case len(names) > 0:
			r.pkgs = append(r.pkgs, pkg)
		case !timedOut:
			r.crashed = append(r.crashed, pkg)
		}
		if timedOut {
			r.timedOut = append(r.timedOut, pkg)
		}
	}
	return r
}

// reruns are the go test invocations that repeat what r, a first run
// under -timeout limit, saw fail, to discount flakes: the failed tests in
// their packages under the same limit, and each crashed package whole,
// on its own and bounded by ten times its first run (at least a minute,
// at most limit), so a seed that crashes a package and then hangs it
// does not hold the re-run for the full timeout. A timeout is not
// re-run.
func (r testRun) reruns(limit time.Duration) [][]string {
	var out [][]string
	if len(r.tests) > 0 {
		out = append(out, append([]string{"test", "-count=1", "-timeout", limit.String(), "-run", "^(" + strings.Join(r.tests, "|") + ")$"}, r.pkgs...))
	}
	for _, pkg := range r.crashed {
		bound := min(limit, max(time.Minute, 10*r.took[pkg]))
		out = append(out, []string{"test", "-count=1", "-timeout", bound.String(), "-skip", notTaqvet, pkg})
	}
	return out
}

// firstRunTimeout is the -timeout of the first go test of a mutated
// copy, and the most any re-run gets, given r, a run of the unmutated
// suite: three times its slowest package, at least a minute, at most
// five. A seed that hangs a package then costs little more than the
// suite takes unmutated.
func (r testRun) firstRunTimeout() time.Duration {
	var slowest time.Duration
	for _, d := range r.took {
		slowest = max(slowest, d)
	}
	return min(5*time.Minute, max(time.Minute, 3*slowest))
}

// testVerdict names what the tier-1 tests catch, given their first run
// and the re-run of its failures: a test that failed twice (want, if it
// is one of them, else the least name, as go test prints packages in
// completion order) wins, then a package that crashed twice ("crash
// <import path>"; a crashed package whose re-run times out counts),
// then a timeout of the first run; "" means the tests caught nothing.
func testVerdict(first, again testRun, want string) string {
	crashed := slices.Clone(again.crashed)
	for _, pkg := range again.timedOut {
		if slices.Contains(first.crashed, pkg) {
			crashed = append(crashed, pkg)
		}
	}
	switch {
	case slices.Contains(again.tests, strings.TrimPrefix(want, "test ")):
		return want
	case len(again.tests) > 0:
		return "test " + slices.Min(again.tests)
	case len(crashed) > 0:
		return "crash " + slices.Min(crashed)
	case len(first.timedOut) > 0:
		return "timeout"
	}
	return ""
}

// caughtByTests reports whether a first catcher is a tier-1 test
// verdict rather than the compiler, vet or taqvet.
func caughtByTests(first string) bool {
	return strings.HasPrefix(first, "test Test") || strings.HasPrefix(first, "crash taq") || first == "timeout"
}

// suiteTimeout runs the tier-1 suite once on the unmutated copy and
// returns the -timeout its times allow every row's test runs.
func suiteTimeout(t *testing.T, root string) time.Duration {
	t.Helper()
	cmd := exec.Command("go", "test", "-count=1", "-timeout", "5m", "-skip", notTaqvet, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Logf("go test on the unmutated copy failed:\n%s", out)
	}
	limit := parseGoTest(string(out)).firstRunTimeout()
	t.Logf("first go test of each row runs with -timeout %v", limit)
	return limit
}

// firstCatcher runs the chain compiler, go vet, tier-1 tests, taqvet on
// the mutated copy and names the first link that objects. Failing tests
// and crashed packages are re-run once and only repeat offenders count:
// a few wall-clock emu tests flake on a loaded machine, seed or no seed.
// The re-runs run concurrently, so a seed that hangs several of them
// costs one bound, not their sum; their outputs are joined in reruns
// order, so the log and the verdict do not depend on which finished
// first. No run of the tests outlasts limit (firstRunTimeout).
func (m mutation) firstCatcher(t *testing.T, root string, fires []string, limit time.Duration) string {
	goTool := func(args ...string) (string, bool) {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		return string(out), err == nil
	}
	if out, ok := goTool("build", "./..."); !ok {
		t.Logf("go build:\n%s", out)
		return "build"
	}
	if out, ok := goTool("vet", "./..."); !ok {
		t.Logf("go vet:\n%s", out)
		return "vet"
	}
	if m.hangs {
		t.Log("tier-1 tests skipped: the seed makes them hang")
	} else if out, ok := goTool("test", "-timeout", limit.String(), "-skip", notTaqvet, "./..."); !ok {
		first := parseGoTest(out)
		if len(first.timedOut) > 0 {
			t.Logf("go test hit -timeout in %v", first.timedOut)
		}
		reruns := first.reruns(limit)
		outs := make([]string, len(reruns))
		var wg sync.WaitGroup
		for i, args := range reruns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], _ = goTool(args...)
			}()
		}
		wg.Wait()
		again := strings.Join(outs, "")
		if again != "" {
			t.Logf("go test (re-run of the failures):\n%s", again)
		}
		v := testVerdict(first, parseGoTest(again), m.first)
		if v == "timeout" || (v == "" && len(first.tests)+len(first.crashed) == 0) {
			t.Logf("go test:\n%s", out)
		}
		if v != "" {
			return v
		}
		t.Logf("tier-1 failures that passed a re-run: %v %v", first.tests, first.crashed)
	}
	if slices.Contains(fires, m.first) {
		return m.first
	}
	return strings.Join(fires, ",")
}

// TestGoTestVerdict pins how firstCatcher reads canned go test output:
// a named failure elsewhere outranks a timeout, a binary that crashes
// naming no test is reported by package and re-run whole under a bound
// taken from its first run, a crash whose re-run times out crashed
// twice, a failure that passes its re-run is a flake, and no re-run
// outlasts the first run's -timeout.
func TestGoTestVerdict(t *testing.T) {
	const (
		timeout = "ok  \ttaq/internal/sim\t0.1s\n" +
			"panic: test timed out after 5m0s\n\trunning tests:\n\t\tTestAllQueueKindsRun (5m0s)\n\n" +
			"goroutine 7 [running]:\ntesting.(*M).startAlarm.func1()\n" +
			"FAIL\ttaq/internal/topology\t300.012s\n"
		named = "--- FAIL: TestHotpathRootsZeroAlloc (0.01s)\n" +
			"    hotpath_alloc_test.go:200: (*core.TAQ).Enqueue: 1 allocs per run, want 0\n" +
			"FAIL\nFAIL\ttaq\t0.512s\n"
		crash = "panic: runtime error: index out of range [5] with length 3\n\n" +
			"goroutine 42 [running]:\ntaq/internal/core.(*tracker).scan(0xc000100000)\n" +
			"FAIL\ttaq/internal/core\t0.210s\n"
		slowCrash = "panic: close of closed channel\n\ngoroutine 9 [running]:\n" +
			"FAIL\ttaq\t12.500s\n"
		rerunHangs = "panic: test timed out after 2m5s\n\trunning tests:\n\t\tTestDeterministicReplay (2m5s)\n\n" +
			"goroutine 7 [running]:\ntesting.(*M).startAlarm.func1()\n" +
			"FAIL\ttaq\t125.010s\n"
		flaky = "--- FAIL: TestEngineLateness (1.02s)\n    engine_test.go:50: late by 12ms\n" +
			"FAIL\nFAIL\ttaq/internal/emu\t2.104s\nok  \ttaq/internal/core\t1.0s\n"
	)
	rerunTests := func(pattern string, pkgs ...string) []string {
		return append([]string{"test", "-count=1", "-timeout", "5m0s", "-run", pattern}, pkgs...)
	}
	rerunPkg := func(timeout, pkg string) []string {
		return []string{"test", "-count=1", "-timeout", timeout, "-skip", notTaqvet, pkg}
	}
	for _, c := range []struct {
		name, first, again, want string
		limit                    time.Duration // of the first run; 0 is 5m
		reruns                   [][]string
		verdict                  string
	}{
		{name: "timeout only", first: timeout + "FAIL\n",
			verdict: "timeout"},
		{name: "timeout plus a FAIL", first: timeout + named + "FAIL\n", again: named + "FAIL\n",
			reruns:  [][]string{rerunTests("^(TestHotpathRootsZeroAlloc)$", "taq")},
			verdict: "test TestHotpathRootsZeroAlloc"},
		{name: "the row's own test wins", first: named + flaky, again: named + flaky,
			want:    "test TestHotpathRootsZeroAlloc",
			reruns:  [][]string{rerunTests("^(TestHotpathRootsZeroAlloc|TestEngineLateness)$", "taq", "taq/internal/emu")},
			verdict: "test TestHotpathRootsZeroAlloc"},
		{name: "else the least name", first: named + flaky, again: named + flaky,
			reruns:  [][]string{rerunTests("^(TestHotpathRootsZeroAlloc|TestEngineLateness)$", "taq", "taq/internal/emu")},
			verdict: "test TestEngineLateness"},
		{name: "crash only", first: crash + "FAIL\n", again: crash,
			reruns:  [][]string{rerunPkg("1m0s", "taq/internal/core")},
			verdict: "crash taq/internal/core"},
		{name: "crash whose re-run times out", first: crash + slowCrash + "FAIL\n", again: rerunHangs + "ok  \ttaq/internal/core\t1.0s\n",
			reruns:  [][]string{rerunPkg("1m0s", "taq/internal/core"), rerunPkg("2m5s", "taq")},
			verdict: "crash taq"},
		{name: "flake passes its re-run", first: flaky + "FAIL\n", again: "ok  \ttaq/internal/emu\t1.9s\n",
			reruns:  [][]string{rerunTests("^(TestEngineLateness)$", "taq/internal/emu")},
			verdict: ""},
		{name: "re-runs keep the first run's bound", first: flaky + slowCrash + "FAIL\n", again: flaky,
			limit: 82500 * time.Millisecond,
			reruns: [][]string{
				{"test", "-count=1", "-timeout", "1m22.5s", "-run", "^(TestEngineLateness)$", "taq/internal/emu"},
				rerunPkg("1m22.5s", "taq")},
			verdict: "test TestEngineLateness"},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := parseGoTest(c.first)
			limit := c.limit
			if limit == 0 {
				limit = 5 * time.Minute
			}
			if got := first.reruns(limit); !slices.EqualFunc(got, c.reruns, slices.Equal) {
				t.Errorf("reruns = %q, want %q", got, c.reruns)
			}
			if got := testVerdict(first, parseGoTest(c.again), c.want); got != c.verdict {
				t.Errorf("verdict = %q, want %q", got, c.verdict)
			}
		})
	}
}

// TestFirstRunTimeout pins the first run's bound, read from canned output
// of the unmutated suite: three times the slowest package, whatever its
// verdict, clamped to between one and five minutes; a cached package
// prints no time and counts for nothing.
func TestFirstRunTimeout(t *testing.T) {
	for _, c := range []struct {
		name, out string
		want      time.Duration
	}{
		{name: "fast suite", out: "ok  \ttaq/internal/sim\t0.4s\nok  \ttaq/internal/core\t12.0s\n",
			want: time.Minute},
		{name: "slowest package", out: "ok  \ttaq/internal/sim\t0.4s\nok  \ttaq/experiments\t27.5s\nok  \ttaq/internal/workload\t21.0s\n",
			want: 82500 * time.Millisecond},
		{name: "a failed package counts", out: "--- FAIL: TestEngineLateness (1.02s)\nFAIL\nFAIL\ttaq/internal/emu\t45.0s\nok  \ttaq/internal/core\t1.0s\n",
			want: 135 * time.Second},
		{name: "capped", out: "ok  \ttaq/experiments\t150.0s\n",
			want: 5 * time.Minute},
		{name: "cached", out: "ok  \ttaq/experiments\t(cached)\nok  \ttaq/internal/sim\t0.4s\n",
			want: time.Minute},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := parseGoTest(c.out).firstRunTimeout(); got != c.want {
				t.Errorf("firstRunTimeout = %v, want %v", got, c.want)
			}
		})
	}
}
