package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testConfig is the production config narrowed to the analyzers under
// test and widened to the fixture packages under testdata/src that the
// determinism analyzers must see. Matching is by package base name, so
// these names stay out of DefaultConfig: a real package that happened
// to be called "wallclock" must not be opted in silently.
func testConfig(analyzers ...*Analyzer) *Config {
	cfg := DefaultConfig()
	cfg.Analyzers = analyzers
	cfg.Deterministic = append(cfg.Deterministic, "wallclock", "maprange", "allowfunc")
	return cfg
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// wants extracts the backtick-quoted regexes of "// want" comments,
// keyed by file:line.
func wants(t *testing.T, pkgs []*Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := posKey(pos)
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
						}
						out[key] = append(out[key], re)
					}
				}
			}
		}
	}
	return out
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// runCase loads one testdata package, runs the analyzers, and requires
// the diagnostics to match the // want expectations exactly and every
// judged //taq:allow in the fixture to suppress something.
func runCase(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	runCaseDirs(t, []string{dir}, analyzers...)
}

// runCaseDirs is runCase over several fixture packages loaded together
// — the shardown contract needs an owner package plus a foreign one.
func runCaseDirs(t *testing.T, dirs []string, analyzers ...*Analyzer) {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./testdata/src/" + d
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading testdata %v: %v", dirs, err)
	}
	expected := wants(t, pkgs)
	diags, stale := RunAudit(pkgs, testConfig(analyzers...))
	for _, d := range stale {
		t.Errorf("fixture directive: %s", d)
	}

	matched := make(map[string]int) // posKey -> how many wants consumed
	for _, d := range diags {
		key := posKey(d.Pos)
		res := expected[key]
		ok := false
		for i, re := range res {
			if re == nil {
				continue
			}
			if re.MatchString(d.Message) {
				res[i] = nil
				matched[key]++
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range expected {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
			}
		}
	}
}

func TestWallclock(t *testing.T)      { runCase(t, "wallclock", Wallclock) }
func TestMapRange(t *testing.T)       { runCase(t, "maprange", MapRange) }
func TestLockDiscipline(t *testing.T) { runCase(t, "lockdiscipline", LockDiscipline) }
func TestSimTime(t *testing.T)        { runCase(t, "simtime", SimTime) }

// The hotpath-closure analyzers: hotpath exercises closure propagation
// (interface dispatch, function values, method values, line-scoped
// transitive suppression); the other three exercise each analyzer's
// full finding surface.
func TestHotpathPropagation(t *testing.T) { runCase(t, "hotpath", NoAlloc) }
func TestNoAlloc(t *testing.T)            { runCase(t, "noalloc", NoAlloc) }
func TestNoBlock(t *testing.T)            { runCase(t, "noblock", NoBlock) }

// shardown needs the owner package plus a foreign package to exercise
// the cross-package boundary rule.
func TestShardOwn(t *testing.T) { runCaseDirs(t, []string{"shardown", "shardown/shardsub"}, ShardOwn) }

// TestAllowFunc checks the function-scoped suppression: wallclock runs
// over the fixture and only the undirected function reports.
func TestAllowFunc(t *testing.T) { runCase(t, "allowfunc", Wallclock) }

// TestAllowFuncStale pins the allow(func) audit semantics: a directive
// whose function produces no matching finding is stale; one that
// suppressed something is not; an unjudged analyzer stays silent.
func TestAllowFuncStale(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/allowfunc")
	if err != nil {
		t.Fatalf("loading testdata/allowfunc: %v", err)
	}
	_, stale := RunAudit(pkgs, testConfig(Wallclock, MapRange))
	var gotStale bool
	for _, d := range stale {
		if strings.Contains(d.Message, "stale //taq:allow(func) maprange") {
			gotStale = true
		}
		if strings.Contains(d.Message, "allow(func) wallclock") {
			t.Errorf("live allow(func) flagged stale: %s", d)
		}
	}
	if !gotStale {
		t.Errorf("missing stale report for allow(func) maprange; got %v", stale)
	}
	// When maprange does not run, its directive must not be judged.
	_, stale = RunAudit(pkgs, testConfig(Wallclock))
	for _, d := range stale {
		if strings.Contains(d.Message, "maprange") {
			t.Errorf("directive for non-running analyzer flagged: %s", d)
		}
	}
}

// TestAnnotationsInventory pins the WriteAnnotations baseline format:
// byte-stable across calls, every directive kind listed, and the
// totals line consistent with the fixture contents.
func TestAnnotationsInventory(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/shardown", "./testdata/src/shardown/shardsub")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	var a, b strings.Builder
	if err := WriteAnnotations(&a, pkgs); err != nil {
		t.Fatalf("WriteAnnotations: %v", err)
	}
	WriteAnnotations(&b, pkgs)
	if a.String() != b.String() {
		t.Error("WriteAnnotations output is not stable across calls")
	}
	for _, want := range []string{
		"shardowned taq/internal/analysis/testdata/src/shardown.Owned\n",
		"shardowned taq/internal/analysis/testdata/src/shardown.handles\n",
		"crossshard taq/internal/analysis/testdata/src/shardown.Handoff\n",
		"crossshard taq/internal/analysis/testdata/src/shardown/shardsub.aggregate\n",
		"total 2 shardowned, 2 crossshard\n",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("inventory missing %q:\n%s", want, a.String())
		}
	}
}

// TestHotpathClosure pins the call-graph API the -roots baseline and
// the alloc-test table rely on: the fixture root is listed, every
// function it reaches (through any dispatch mechanism) is in the
// closure, and the unreached twin is not.
func TestHotpathClosure(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/hotpath")
	if err != nil {
		t.Fatalf("loading testdata/hotpath: %v", err)
	}
	prog := NewProgram(pkgs)
	roots := prog.Roots()
	if len(roots) != 1 || !strings.HasSuffix(roots[0].Name(), "hotpath.Root") {
		t.Fatalf("Roots() = %v, want exactly hotpath.Root", roots)
	}
	hot := make(map[string]bool)
	for _, n := range prog.HotNodes() {
		hot[n.Name()] = true
	}
	for _, want := range []string{
		"hotpath.Root",
		"hotpath.Impl).Push",
		"hotpath.viaValue",
		"hotpath.holder).viaMethodValue",
		"hotpath.transitive",
	} {
		found := false
		for name := range hot {
			if strings.Contains(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("closure is missing %s; hot = %v", want, hot)
		}
	}
	for name := range hot {
		if strings.Contains(name, "notHot") {
			t.Errorf("closure wrongly contains %s", name)
		}
	}
	// WriteRoots must be byte-stable: two renders agree.
	var a, b strings.Builder
	WriteRoots(&a, pkgs)
	WriteRoots(&b, pkgs)
	if a.String() != b.String() {
		t.Error("WriteRoots output is not stable across calls")
	}
	if !strings.Contains(a.String(), "total ") {
		t.Errorf("WriteRoots output missing total line:\n%s", a.String())
	}
}

// TestAuditMalformed pins the -audit bugfix: malformed directives
// (typoed directive word, missing or partially empty analyzer list,
// misplaced hotpath, unknown analyzer name) must surface as audit
// diagnostics so the driver exits non-zero.
func TestAuditMalformed(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/malformed")
	if err != nil {
		t.Fatalf("loading testdata/malformed: %v", err)
	}
	_, stale := RunAudit(pkgs, testConfig(All()...))
	for _, want := range []string{
		"unknown directive //taq:alow",
		"missing analyzer list",
		"misplaced //taq:hotpath",
		"empty analyzer name",
		`unknown analyzer "wallclck"`,
		"misplaced //taq:shardowned",
		"misplaced //taq:crossshard",
		"malformed //taq:allow(func): missing analyzer list",
		"misplaced //taq:allow(func)",
		// Retired directive words are typos now.
		"unknown directive //taq:layout",
		"unknown directive //taq:atomic",
	} {
		found := false
		for _, d := range stale {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("audit is missing a diagnostic containing %q; got %v", want, stale)
		}
	}
}

// TestLoadErrorNamesPackage pins the exit-2 contract's prerequisite:
// when a package fails to type-check, Load must surface a *LoadError
// carrying the failing package's import path so the driver can name it.
func TestLoadErrorNamesPackage(t *testing.T) {
	_, err := Load(".", "./testdata/src/broken")
	if err == nil {
		t.Fatal("Load of testdata/src/broken succeeded, want type-check failure")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("Load error is %T (%v), want *LoadError", err, err)
	}
	if !strings.Contains(le.Pkg, "broken") {
		t.Errorf("LoadError.Pkg = %q, want the broken package's path", le.Pkg)
	}
	if !strings.Contains(le.Error(), le.Pkg) {
		t.Errorf("LoadError message %q does not name the package", le.Error())
	}
}

// TestAuditStaleAllow checks that a directive which suppresses nothing
// is reported stale, while a live one is not.
func TestAuditStaleAllow(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/maprange")
	if err != nil {
		t.Fatalf("loading testdata/maprange: %v", err)
	}
	// maprange's fixture contains live //taq:allow directives; run with
	// the analyzer they name, then without it.
	_, stale := RunAudit(pkgs, testConfig(MapRange))
	for _, d := range stale {
		if strings.Contains(d.Message, "stale //taq:allow maprange") {
			t.Errorf("live directive flagged stale: %s", d)
		}
	}
	// With only wallclock running, maprange directives must NOT be
	// judged (their analyzer did not run), so no stale reports either.
	_, stale = RunAudit(pkgs, testConfig(Wallclock))
	for _, d := range stale {
		if strings.Contains(d.Message, "taq:allow maprange") {
			t.Errorf("directive for non-running analyzer flagged: %s", d)
		}
	}
}

// inventories are the two committed baselines a whole-module load must
// reproduce byte for byte; `make taqvet-<name>` regenerates each.
var inventories = []struct {
	name, file string
	write      func(io.Writer, []*Package) error
}{
	{"roots", "docs/hotpath-closure.txt", WriteRoots},
	{"annotations", "docs/taq-annotations.txt", WriteAnnotations},
}

// inventoryDrift names the inventories whose committed file under root
// differs from what pkgs (the whole module) renders now.
func inventoryDrift(root string, pkgs []*Package) []string {
	var drifted []string
	for _, inv := range inventories {
		var live bytes.Buffer
		inv.write(&live, pkgs)
		if committed, err := os.ReadFile(filepath.Join(root, inv.file)); err != nil || !bytes.Equal(committed, live.Bytes()) {
			drifted = append(drifted, inv.name)
		}
	}
	return drifted
}

// TestRepoIsClean is `taqvet -audit ./...` plus the two inventory
// comparisons as a tier-1 test: a stray time.Now, a stale or misspelled
// //taq:allow, a malformed directive, or a //taq:hotpath, shardowned or
// crossshard annotation silently added or dropped fails the normal
// test run, not just CI's taqvet step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(pkgs))
	}
	diags, stale := RunAudit(pkgs, DefaultConfig())
	for _, d := range append(diags, stale...) {
		t.Errorf("finding: %s", d)
	}
	for _, name := range inventoryDrift("../..", pkgs) {
		t.Errorf("the %s inventory drifted from its committed file — review the change, then `make taqvet-%s` and commit the result", name, name)
	}
}

func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "wallclock",
		Message:  "msg",
	}
	if got, want := d.String(), "x.go:3:7: msg [wallclock]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestConfigScoping(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range []string{"taq/internal/core", "taq/internal/sim", "taq/internal/metrics"} {
		if !cfg.IsDeterministic(path) {
			t.Errorf("IsDeterministic(%q) = false, want true", path)
		}
	}
	for _, path := range []string{"taq/internal/emu", "taq/internal/trace", "taq/cmd/taqsim", "taq"} {
		if cfg.IsDeterministic(path) {
			t.Errorf("IsDeterministic(%q) = true, want false", path)
		}
	}
}
