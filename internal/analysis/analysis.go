// Package analysis implements taqvet, the repo-specific static
// analyzer suite. It holds the contracts that neither the compiler, go
// vet, nor a tier-1 test catches first — each analyzer in All() is the
// first catcher of at least one seeded violation of the real tree in
// mutation_test.go, and docs/static-analysis.md records which:
//
//   - determinism: time and randomness only from the sim.Runner
//     (wallclock), no order-sensitive map iteration (maprange), no
//     unit-unsafe sim.Time arithmetic (simtime);
//   - timers: no discarded handle where a teardown path must cancel it
//     (timerleak), no use of a handle Reschedule took over (timerown);
//   - the packet path: the //taq:hotpath closure neither allocates
//     (noalloc) nor blocks (noblock);
//   - concurrency: emu's mutex guards its fields (lockdiscipline), lock
//     acquisition is cycle-free program-wide (lockorder), and
//     //taq:shardowned state stays inside its shard (shardown).
//
// The suite is stdlib-only (go/ast, go/parser, go/types, go/token) to
// match the module's empty dependency set.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, printable as "file:line:col: message [analyzer]".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one check in the suite.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one package to one analyzer and collects its reports.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Pkg      *Package
	// Prog is the whole-program context (call graph, hotpath closure,
	// ownership annotations) shared by every pass of one run; the
	// per-package analyzers ignore it.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config selects which packages each analyzer applies to.
type Config struct {
	// Deterministic lists the base names of packages bound by the
	// determinism contract (wallclock and maprange apply there).
	Deterministic []string
	// LockPackages lists the base names of packages whose mutex
	// discipline lockdiscipline checks.
	LockPackages []string
	// NoallocPackages lists the base names of packages where noalloc
	// reports findings on hotpath-closure functions. The closure is
	// always computed whole-program; this scopes only the reporting,
	// so conservatively reached setup code outside the packet path
	// does not drown the signal.
	NoallocPackages []string
	// NoblockPackages is the same scope for noblock. It includes emu
	// (whose engine-lock pattern is then allowlisted by name), since
	// hot code dispatches into the emu engine through sim.Runner.
	NoblockPackages []string
	// NoblockAllow lists substrings of fully qualified function names
	// (types.Func.FullName form) exempt from noblock — the emu
	// engine-lock pattern, whose pairing lockdiscipline checks.
	NoblockAllow []string
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
}

// DefaultConfig returns the repo's production configuration: the
// simulation-facing packages are deterministic; emu is lock-checked.
// emu, trace (the generator) and cmd/ are deliberately absent from the
// deterministic set — they are allowed wall-clock time.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			"sim", "tcp", "queue", "core", "link", "topology",
			"workload", "markov", "tfrc", "metrics", "packet",
			// obs is deterministic by construction (timestamps are
			// caller-supplied sim.Time); its obshttp subpackage serves
			// the wall-clock emu engine and is deliberately excluded.
			"obs",
		},
		LockPackages:    []string{"emu"},
		NoallocPackages: []string{"sim", "queue", "link", "core", "packet", "obs"},
		NoblockPackages: []string{"sim", "queue", "link", "core", "packet", "obs", "emu"},
		NoblockAllow: []string{
			// The emu engine serializes real-timer callbacks through
			// one mutex by design; lockdiscipline checks the pairing.
			"taq/internal/emu.Engine",
		},
	}
}

// IsDeterministic reports whether the package at pkgPath is bound by
// the determinism contract. Matching is by the path's base name.
func (c *Config) IsDeterministic(pkgPath string) bool {
	return containsBase(c.Deterministic, pkgPath)
}

// IsLockChecked reports whether lockdiscipline applies to pkgPath.
func (c *Config) IsLockChecked(pkgPath string) bool {
	return containsBase(c.LockPackages, pkgPath)
}

// IsNoallocChecked reports whether noalloc reports findings in pkgPath.
func (c *Config) IsNoallocChecked(pkgPath string) bool {
	return containsBase(c.NoallocPackages, pkgPath)
}

// IsNoblockChecked reports whether noblock reports findings in pkgPath.
func (c *Config) IsNoblockChecked(pkgPath string) bool {
	return containsBase(c.NoblockPackages, pkgPath)
}

// NoblockAllowed reports whether the qualified function name matches
// the noblock allowlist.
func (c *Config) NoblockAllowed(funcName string) bool {
	for _, pat := range c.NoblockAllow {
		if strings.Contains(funcName, pat) {
			return true
		}
	}
	return false
}

func containsBase(list []string, pkgPath string) bool {
	base := path.Base(pkgPath)
	for _, name := range list {
		if name == base {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapRange, TimerLeak, LockDiscipline, TimerOwn, SimTime, NoAlloc, NoBlock, LockOrder, ShardOwn}
}

// RunAudit applies the configured analyzers to every package and
// returns the surviving (non-suppressed) diagnostics sorted by position.
// The second result is the annotation audit: it lists
// one "audit" diagnostic per //taq:allow directive that suppressed
// nothing, plus one per malformed //taq: directive (unknown directive
// word, empty analyzer list, misplaced //taq:hotpath) — a misspelled
// suppression must fail -audit, not silently disable a gate. A
// directive is only judged stale against analyzers that actually ran,
// so -only subsets never produce false stales.
func RunAudit(pkgs []*Package, cfg *Config) (diags, stale []Diagnostic) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	prog := NewProgram(pkgs)
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		allow := collectAllows(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Cfg: cfg, Pkg: pkg, Prog: prog}
			pass.report = func(d Diagnostic) {
				if allow.suppressed(d) {
					return
				}
				// The dataflow walker revisits loop bodies, so an
				// analyzer may report one defect twice; keep the first.
				key := d.String()
				if !seen[key] {
					seen[key] = true
					out = append(out, d)
				}
			}
			a.Run(pass)
		}
		stale = append(stale, allow.stale(ran, known)...)
		stale = append(stale, collectMalformed(pkg)...)
	}
	SortDiagnostics(out)
	SortDiagnostics(stale)
	return out, stale
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) — the canonical order every output format relies on for
// byte-stable output across packages.
func SortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowSet records //taq:allow suppression comments: a diagnostic is
// suppressed when an allow comment naming its analyzer sits on the same
// line or on the line immediately above, or when a //taq:allow(func)
// directive in the enclosing function's doc comment names it. Each
// directive tracks whether it ever suppressed anything, so RunAudit can
// flag stale ones.
type allowSet struct {
	// byFile maps filename -> line -> directives declared there.
	byFile map[string]map[int][]*allowEntry
	// ranged maps filename -> function-scoped allow(func) directives.
	ranged  map[string][]*allowEntry
	entries []*allowEntry
}

// allowEntry is one analyzer name of one //taq:allow or
// //taq:allow(func) directive.
type allowEntry struct {
	pos  token.Position
	name string
	used bool
	// scoped entries suppress any line of the annotated function's
	// declaration range instead of one source line.
	scoped   bool
	fromLine int
	toLine   int
}

func collectAllows(pkg *Package) *allowSet {
	s := &allowSet{
		byFile: make(map[string]map[int][]*allowEntry),
		ranged: make(map[string][]*allowEntry),
	}
	// Line ranges for //taq:allow(func): a directive in a function's
	// doc comment suppresses findings anywhere in the declaration.
	funcRange := make(map[*ast.Comment][2]int)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			r := [2]int{pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line}
			for _, c := range fd.Doc.List {
				funcRange[c] = r
			}
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, rest, ok := taqDirective(c.Text)
				if !ok || (word != "allow" && word != "allow(func)") {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // malformed; collectMalformed reports it
				}
				// First token is the analyzer list; anything after it
				// is free-form rationale.
				names := strings.Split(fields[0], ",")
				pos := pkg.Fset.Position(c.Pos())
				if word == "allow(func)" {
					r, ok := funcRange[c]
					if !ok {
						continue // misplaced; collectMalformed reports it
					}
					for _, name := range names {
						if name == "" {
							continue // malformed; collectMalformed reports it
						}
						e := &allowEntry{pos: pos, name: name, scoped: true, fromLine: r[0], toLine: r[1]}
						s.ranged[pos.Filename] = append(s.ranged[pos.Filename], e)
						s.entries = append(s.entries, e)
					}
					continue
				}
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*allowEntry)
					s.byFile[pos.Filename] = lines
				}
				for _, name := range names {
					if name == "" {
						continue // malformed; collectMalformed reports it
					}
					e := &allowEntry{pos: pos, name: name}
					lines[pos.Line] = append(lines[pos.Line], e)
					s.entries = append(s.entries, e)
				}
			}
		}
	}
	return s
}

// collectMalformed reports //taq: directives the suite cannot honor:
// unknown directive words (a typo like //taq:alow silently disables a
// gate), allow/allow(func) directives with an empty or partially empty
// analyzer list, and directives outside the declaration kind they
// annotate (hotpath/crossshard/allow(func) on functions, shardowned on
// type declarations). They travel with the stale list so -audit exits
// non-zero on them. The checks use only the ASTs — never type info — so
// FuzzParseDirectives can drive them directly.
func collectMalformed(pkg *Package) []Diagnostic {
	// Comments that legitimately host function-level directives: doc
	// comments of function declarations with bodies. Likewise doc
	// comments of type declarations, for shardowned.
	funcDoc := make(map[*ast.Comment]bool)
	typeDoc := make(map[*ast.Comment]bool)
	mark := func(set map[*ast.Comment]bool, doc *ast.CommentGroup) {
		if doc != nil {
			for _, c := range doc.List {
				set[c] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					mark(funcDoc, d.Doc)
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				if len(d.Specs) == 1 {
					mark(typeDoc, d.Doc)
				}
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						mark(typeDoc, ts.Doc)
						mark(typeDoc, ts.Comment)
					}
				}
			}
		}
	}
	var out []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      pkg.Fset.Position(c.Pos()),
			Analyzer: "audit",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// checkList validates the analyzer-name list shared by allow and
	// allow(func).
	checkList := func(c *ast.Comment, word, rest string) {
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			report(c, "malformed //taq:%s: missing analyzer list (want //taq:%s <name>[,<name>...] rationale)", word, word)
			return
		}
		for _, name := range strings.Split(fields[0], ",") {
			if name == "" {
				report(c, "malformed //taq:%s %s: empty analyzer name in list", word, fields[0])
				break
			}
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, rest, ok := taqDirective(c.Text)
				if !ok {
					continue
				}
				switch word {
				case "allow":
					checkList(c, word, rest)
				case "allow(func)":
					if !funcDoc[c] {
						report(c, "misplaced //taq:allow(func): the directive must sit in the doc comment of a function declaration")
						continue
					}
					checkList(c, word, rest)
				case "hotpath", "crossshard":
					if !funcDoc[c] {
						report(c, "misplaced //taq:%s: the directive must sit in the doc comment of a function declaration", word)
					}
				case "shardowned":
					if !typeDoc[c] {
						report(c, "misplaced //taq:shardowned: the directive must sit in the doc comment of a type declaration")
					}
				default:
					report(c, "unknown directive //taq:%s (want allow, allow(func), hotpath, shardowned, or crossshard)", word)
				}
			}
		}
	}
	return out
}

func (s *allowSet) suppressed(d Diagnostic) bool {
	hit := false
	if lines := s.byFile[d.Pos.Filename]; lines != nil {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, e := range lines[line] {
				if e.name == d.Analyzer || e.name == "all" {
					e.used = true
					hit = true
				}
			}
		}
	}
	for _, e := range s.ranged[d.Pos.Filename] {
		if d.Pos.Line >= e.fromLine && d.Pos.Line <= e.toLine && (e.name == d.Analyzer || e.name == "all") {
			e.used = true
			hit = true
		}
	}
	return hit
}

// stale returns one audit diagnostic per directive that suppressed
// nothing. Only analyzers in ran are judged (a directive for an
// analyzer that did not run this invocation is not stale); names not
// in known are always reported, as misspellings suppress nothing ever.
func (s *allowSet) stale(ran, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.entries {
		if e.used {
			continue
		}
		word := "//taq:allow"
		if e.scoped {
			word = "//taq:allow(func)"
		}
		switch {
		case !known[e.name] && e.name != "all":
			out = append(out, Diagnostic{
				Pos:      e.pos,
				Analyzer: "audit",
				Message:  fmt.Sprintf("%s names unknown analyzer %q (typo? see taqvet -list)", word, e.name),
			})
		case e.name == "all" || ran[e.name]:
			msg := fmt.Sprintf("stale %s %s: it suppresses no finding — delete the directive", word, e.name)
			if e.scoped {
				msg = fmt.Sprintf("stale %s %s: no line in the function produces a finding — delete the directive", word, e.name)
			}
			out = append(out, Diagnostic{Pos: e.pos, Analyzer: "audit", Message: msg})
		}
	}
	return out
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "<expr>"
	}
}
