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
	"strings"
	"testing"
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
	// first is the first catcher: "build", "vet", "test <Test>", or an
	// element of fires. TestRepoIsClean and this file's tests do not
	// count as tests — they are taqvet.
	first string
	// hangs marks a seed under which tier-1 tests time out (or eat
	// gigabytes until they do) instead of failing; a timeout is not a
	// verdict, so taqvet is still first.
	hangs bool
}

// importTime is the edit that gives a seed the "time" import it needs.
var importTime = []string{"import (\n", "import (\n\t\"time\"\n"}

// wholeModule is the load of rows that need the whole-program view: the
// hot closure, the lock graph, cross-package ownership, the inventories.
var wholeModule = []string{"./..."}

var mutations = []mutation{
	// wallclock: a host-clock read on the path of every packet, one on
	// the SYN-retry branch, and the process-global rand source in RED's
	// gentle region. None changes a result any test pins.
	{name: "wallclock.enqueue", file: "internal/core/taq.go",
		edits: append([]string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++\n\t_ = time.Now()\n"}, importTime...),
		fires: []string{"noblock", "wallclock"}, first: "wallclock"},
	{name: "wallclock.synTimeout", file: "internal/tcp/sender.go",
		edits: append([]string{"\ts.synRetries++\n", "\ts.synRetries++\n\t_ = time.Now()\n"}, importTime...),
		fires: []string{"wallclock"}, first: "wallclock"},
	{name: "wallclock.globalRand", file: "internal/queue/red.go",
		edits: []string{"if q.rng.Float64() < pb {", "if rand.Float64() < pb {"},
		fires: []string{"wallclock"}, first: "wallclock"},

	// maprange: a float sum taken over the map of live flows instead of
	// the ids ever added (a test sees the released flows' bytes missing
	// before taqvet sees the map order), a collect-then-sort that lost
	// its sort (the producer detaint used to re-report at three
	// consumers), and the first-match shape only detaint used to see.
	{name: "maprange.goodput", file: "internal/topology/dumbbell.go",
		edits: []string{"\tfor id := packet.FlowID(0); id < n.nextID; id++ {\n\t\tbytes += n.Slicer.FlowTotal(id)\n", "\tfor id := range n.flows {\n\t\tbytes += n.Slicer.FlowTotal(id)\n"},
		fires: []string{"maprange"}, first: "test TestReleaseIsInvisible"},
	{name: "maprange.sortedIDs", file: "internal/metrics/slicer.go",
		edits: []string{"\tsort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })\n\treturn ids", "\t_ = sort.Slice\n\treturn ids"},
		fires: []string{"maprange"}, first: "maprange"},
	{name: "detaint.firstMatch", file: "internal/metrics/slicer.go",
		edits: []string{
			"// aliveIn reports whether", "func (s *Slicer) anyID() packet.FlowID {\n\tfor id := range s.flows {\n\t\treturn id\n\t}\n\treturn 0\n}\n\n// aliveIn reports whether",
			// Value-neutral on purpose: the order dependence is the bug.
			"\t\t\t\talive = true\n\t\t\t\ttotal += fs.at(i)\n", "\t\t\t\talive = true\n\t\t\t\ttotal += fs.at(i) + 0*float64(s.anyID())\n"},
		fires: []string{"maprange"}, first: "maprange"},

	// timerleak: a Schedule handle dropped in a type whose Stop must
	// cancel it. TestShardBankOwnershipRouting failed one run in five
	// under the first — and now and then under unrelated seeds on a busy
	// machine, so it reads as a flake.
	{name: "timerleak.scan", file: "internal/core/taq.go",
		edits: []string{"t.scanTimer = t.run.Schedule(t.cfg.ScanInterval, tick)", "t.run.Schedule(t.cfg.ScanInterval, tick)"},
		fires: []string{"timerleak"}, first: "timerleak"},
	{name: "timerleak.feedback", file: "internal/tfrc/tfrc.go",
		edits: []string{"\n\tr.fbTimer = sim.Reschedule(r.run, r.fbTimer, r.rtt, r.sendFeedback)\n}", "\n\tr.run.Schedule(r.rtt, r.sendFeedback)\n}"},
		fires: []string{"timerleak"}, first: "timerleak"},

	// timerown: Cancel through a handle Reschedule took over breaks every
	// TCP run when it is the RTO timer and the SYN tests when it is the
	// SYN timer; a delayed-ack timer whose new handle is dropped breaks
	// nothing any test looks at.
	{name: "timerown.armRTO", file: "internal/tcp/sender.go",
		edits: []string{"\ts.rtoTimer = sim.Reschedule(s.run, s.rtoTimer, s.effectiveRTO(), s.rtoFn)\n",
			"\told := s.rtoTimer\n\ts.rtoTimer = sim.Reschedule(s.run, old, s.effectiveRTO(), s.rtoFn)\n\told.Cancel()\n"},
		fires: []string{"timerown"}, first: "test TestGoldenDumbbellTraces"},
	{name: "timerown.synTimer", file: "internal/tcp/sender.go",
		edits: []string{"\ts.synTimer = sim.Reschedule(s.run, s.synTimer, timeout, s.synTimeoutFn)\n",
			"\told := s.synTimer\n\ts.synTimer = sim.Reschedule(s.run, old, timeout, s.synTimeoutFn)\n\tif rexmit {\n\t\told.Cancel()\n\t}\n"},
		fires: []string{"timerown"}, first: "test TestSynRetry"},
	{name: "timerown.delTimer", file: "internal/tcp/receiver.go",
		edits: []string{"r.delTimer = sim.Reschedule(r.run, r.delTimer, timeout, r.delAckFn)", "sim.Reschedule(r.run, r.delTimer, timeout, r.delAckFn)"},
		fires: []string{"timerown"}, first: "timerown"},

	// simtime: raw float seconds truncated to nanoseconds in TFRC pacing
	// (the simulation spins at one virtual instant until memory runs out),
	// and a bare 100 where 100 ms was meant.
	{name: "simtime.pacing", file: "internal/tfrc/tfrc.go", hangs: true,
		edits: []string{"gap := sim.FromSeconds(float64(s.cfg.MSS) / s.rate)", "gap := sim.Time(float64(s.cfg.MSS) / s.rate)"},
		fires: []string{"simtime"}, first: "simtime"},
	{name: "simtime.delack", file: "internal/tcp/receiver.go",
		edits: []string{"timeout = 100 * sim.Millisecond", "timeout = 100"},
		fires: []string{"simtime"}, first: "simtime"},

	// noalloc: an escaping new() on every packet is also an AllocsPerRun
	// failure; a make() on the policy-drop branch and a copy-compaction
	// two calls below Dequeue are not — the steady-state harness never
	// reaches either.
	{name: "noalloc.enqueue", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++\n\tlastArrival = new(uint64)\n",
			"// Enqueue implements queue.Discipline.", "var lastArrival *uint64\n\n// Enqueue implements queue.Discipline."},
		fires: []string{"noalloc"}, first: "test TestHotpathRootsZeroAlloc"},
	{name: "noalloc.policyDrop", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.PolicyDrops++\n", "\tt.Stats.PolicyDrops++\n\tt.Stats.DropsByClass[class] += uint64(len(make([]byte, int(class))))\n"},
		fires: []string{"noalloc"}, first: "noalloc"},
	{name: "noalloc.popCompact", file: "internal/core/queues.go", load: wholeModule,
		edits: []string{"f.items = append(f.items[:0], f.items[f.head:]...)", "f.items = append([]*packet.Packet(nil), f.items[f.head:]...)"},
		fires: []string{"noalloc"}, first: "noalloc"},

	// noblock: a mutex on every packet, and one reached through a callee
	// on the policy-drop branch (the second row keeps its name from the
	// aggregator accessor it first called, deleted in PR 25).
	{name: "noblock.enqueue", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.agg.noteArrival()\n", "\tt.agg.noteArrival()\n\tt.agg.rollMu.Lock()\n\tt.agg.rollMu.Unlock()\n"},
		fires: []string{"noblock"}, first: "noblock"},
	{name: "noblock.admissionCounts", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.PolicyDrops++\n", "\tt.Stats.PolicyDrops++\n\tt.agg.waitingPools()\n"},
		fires: []string{"noblock", "roots"}, first: "noblock"},

	// lockdiscipline: a guarded field written, and read by a new accessor,
	// without the mutex. go test -race passes both.
	{name: "lockdiscipline.stop", file: "internal/emu/engine.go", load: wholeModule,
		edits: []string{"\te.mu.Lock()\n\te.stopped = true\n\te.mu.Unlock()\n", "\te.stopped = true\n"},
		fires: []string{"lockdiscipline"}, first: "lockdiscipline"},
	{name: "lockdiscipline.accessor", file: "internal/emu/engine.go", load: wholeModule,
		edits: []string{"// outstandingTimers reports", "// Stopped reports whether Stop ran.\nfunc (e *Engine) Stopped() bool { return e.stopped }\n\n// outstandingTimers reports"},
		fires: []string{"lockdiscipline"}, first: "lockdiscipline"},

	// lockorder: mu and tmu taken in both orders (five packages deadlock
	// until the test timeout), and a recursive rollMu acquisition on the
	// branch only two racing shards reach.
	{name: "lockorder.inversion", file: "internal/emu/engine.go", load: wholeModule, hangs: true,
		edits: []string{"\tdelete(e.timers, node)\n\te.tmu.Unlock()\n\te.mu.Lock()\n", "\tdelete(e.timers, node)\n\te.mu.Lock()\n\te.tmu.Unlock()\n",
			"\te.stopped = true\n\te.mu.Unlock()\n\te.tmu.Lock()\n", "\te.stopped = true\n\te.tmu.Lock()\n\te.mu.Unlock()\n"},
		fires: []string{"lockorder"}, first: "lockorder"},
	{name: "lockorder.recursive", file: "internal/core/aggregator.go", load: wholeModule,
		edits: []string{"\t\t// Another shard rolled while we waited for the lock.\n\t\treturn g.winGen.Load()\n", "\t\treturn g.maybeRoll(now)\n"},
		fires: []string{"lockorder"}, first: "lockorder"},

	// shardown: the tracker parked in a global, handed to a goroutine
	// (the equivalence tests notice that one: the scan now races the
	// packets), passed to another package, and returned by an exported
	// method.
	{name: "shardown.global", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"// Start schedules the periodic scan.", "var lastTracker *tracker\n\n// Start schedules the periodic scan."},
		fires: []string{"shardown"}, first: "shardown"},
	{name: "shardown.goroutine", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.tracker.scan()\n", "\tgo func(tr *tracker) { tr.scan() }(t.tracker)\n"},
		fires: []string{"shardown"}, first: "test TestIncrementalEquivalenceSeeded"},
	{name: "shardown.foreign", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.tracker.rec = rec\n", "\tt.tracker.rec = rec\n\tsim.AfterArg(t.run, 0, func(tr any) { tr.(*tracker).rec = rec }, t.tracker)\n"},
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
	// the real compiler. The second seed keeps every size and moves
	// invTerm out of the hot core; the layout analyzer passed it.
	{name: "layout.pad", file: "internal/core/tracker.go",
		edits: []string{"type flowInfo struct {\n", "type flowInfo struct {\n\tmutPad uint64\n"},
		first: "test TestRecordLayout"},
	{name: "layout.hotCoreSwap", file: "internal/core/tracker.go",
		edits: []string{"\tinvTerm int64\n", "\tsynBurst sim.Time\n", "\tsynBurst     sim.Time\n", "\tinvTerm      int64\n"},
		first: "test TestRecordLayout"},

	// The directives. //taq:allow and //taq:allow(func): one that
	// suppresses nothing, one misspelled so the finding it hid returns.
	{name: "allow.stale", file: "internal/core/taq.go", load: wholeModule,
		edits: []string{"\tt.Stats.Arrivals++\n", "\tt.Stats.Arrivals++ //taq:allow wallclock\n"},
		fires: []string{"audit"}, first: "audit"},
	{name: "allow.typo", file: "internal/core/queues.go", load: wholeModule,
		edits: []string{"//taq:allow noalloc free-list refill", "//taq:allow noaloc free-list refill"},
		fires: []string{"audit", "noalloc"}, first: "audit"},
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
// go vet and the whole tier-1 suite on the mutated copy — about a minute
// a row; this is how the first column of the table was filled in:
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
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			defer m.apply(t, root)()
			fires := m.taqvetFires(root)
			if got, want := strings.Join(fires, ","), strings.Join(m.fires, ","); got != want {
				t.Errorf("taqvet reports [%s], the row records [%s]", got, want)
			}
			if full {
				if got := m.firstCatcher(t, root, fires); got != m.first {
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
			if !catchers[c] && !strings.HasPrefix(c, "test Test") {
				t.Errorf("row %s names catcher %q, which does not exist", m.name, c)
			}
		}
		if !strings.HasPrefix(m.first, "test ") && m.first != "vet" && !slices.Contains(m.fires, m.first) {
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

var (
	failedTestRE = regexp.MustCompile(`(?m)^\s*--- FAIL: (\w+)`)
	failedPkgRE  = regexp.MustCompile(`(?m)^FAIL\t(\S+)`)
)

// firstCatcher runs the chain compiler, go vet, tier-1 tests, taqvet on
// the mutated copy and names the first link that objects. Failing tests
// are re-run once and only repeat offenders count: a few wall-clock emu
// tests flake on a loaded machine, seed or no seed.
func (m mutation) firstCatcher(t *testing.T, root string, fires []string) string {
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
	const notTaqvet = "^(TestRepoIsClean|TestMutations)$"
	if m.hangs {
		t.Log("tier-1 tests skipped: the seed makes them hang")
	} else if out, ok := goTool("test", "-timeout", "5m", "-skip", notTaqvet, "./..."); !ok {
		if strings.Contains(out, "panic: test timed out") {
			t.Logf("go test:\n%s", out)
			return "timeout"
		}
		var names, pkgs []string
		for _, mm := range failedTestRE.FindAllStringSubmatch(out, -1) {
			names = append(names, mm[1])
		}
		for _, mm := range failedPkgRE.FindAllStringSubmatch(out, -1) {
			pkgs = append(pkgs, mm[1])
		}
		retry := append([]string{"test", "-count=1", "-run", "^(" + strings.Join(names, "|") + ")$"}, pkgs...)
		if out, ok := goTool(retry...); !ok {
			t.Logf("go test (re-run of the failures):\n%s", out)
			for _, mm := range failedTestRE.FindAllStringSubmatch(out, -1) {
				if m.first == "test "+mm[1] {
					return m.first
				}
			}
			return "test"
		}
		t.Logf("tier-1 failures that passed a re-run: %v", names)
	}
	if slices.Contains(fires, m.first) {
		return m.first
	}
	return strings.Join(fires, ",")
}
