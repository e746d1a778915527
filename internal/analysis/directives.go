package analysis

// directives.go collects the shard-ownership annotations into one
// program-wide index for the shardown analyzer, and prints the
// annotation inventory TestRepoIsClean compares against
// docs/taq-annotations.txt.
//
// The directive grammar (placement validated by collectMalformed,
// parser fuzzed by FuzzParseDirectives):
//
//	//taq:shardowned <rationale>       doc comment of a type declaration
//	//taq:crossshard <rationale>       doc comment of a function declaration
//	//taq:allow(func) <name>[,...] <rationale>
//	                                   doc comment of a function declaration

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// directiveWords is the complete //taq: vocabulary; collectMalformed
// reports anything else as an unknown directive.
var directiveWords = map[string]bool{
	"allow":       true,
	"allow(func)": true,
	"hotpath":     true,
	"shardowned":  true,
	"crossshard":  true,
}

// contracts is the program-wide index of ownership annotations. The maps are
// keyed by stable strings (typeKey, *types.Func.FullName), never by
// object pointers: a package sees its own declarations through the
// source type-check but its imports through gc export data, so the
// same type or function has two distinct types.Object identities
// depending on which side of the import edge observes it.
type contracts struct {
	// shardOwned marks types (by typeKey) whose values must not escape
	// their owning package except through crossShard functions.
	shardOwned map[string]bool
	// crossShard marks the audited aggregator surface: functions (by
	// FullName) allowed to move shard-owned values across packages.
	crossShard map[string]bool

	// Printable inventory lines, built at collection time.
	shardNames, crossNames []string
}

// contractsIndex lazily collects the annotations across all packages.
func (p *Program) contractsIndex() *contracts {
	if p.contr == nil {
		p.contr = collectContracts(p.Pkgs)
	}
	return p.contr
}

// directiveIn scans doc comment groups for one directive word and
// returns its rest text.
func directiveIn(word string, docs ...*ast.CommentGroup) (string, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if w, rest, ok := taqDirective(c.Text); ok && w == word {
				return rest, true
			}
		}
	}
	return "", false
}

func collectContracts(pkgs []*Package) *contracts {
	c := &contracts{
		shardOwned: make(map[string]bool),
		crossShard: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if _, ok := directiveIn("crossshard", d.Doc); !ok {
						continue
					}
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					c.crossShard[fn.FullName()] = true
					c.crossNames = append(c.crossNames, fn.FullName())
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
						if len(d.Specs) == 1 {
							docs = append(docs, d.Doc)
						}
						tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if _, ok := directiveIn("shardowned", docs...); ok && tn != nil {
							c.shardOwned[typeKey(tn)] = true
							c.shardNames = append(c.shardNames, pkg.Path+"."+ts.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(c.shardNames)
	sort.Strings(c.crossNames)
	return c
}

// ownedIn reports the shard-owned type reachable from t by unwrapping
// pointers, slices, arrays, and map values — the container shapes a
// value escapes through. Ownership is deliberately not transitive
// through struct fields: a wrapper struct (like the single-shard TAQ
// facade today, or a future shard header) is its own ownership domain
// and must carry its own annotation.
func ownedIn(t types.Type, owned map[string]bool, depth int) *types.TypeName {
	if t == nil || depth > 8 {
		return nil
	}
	switch u := t.(type) {
	case *types.Named:
		if owned[typeKey(u.Obj())] {
			return u.Obj()
		}
		return ownedIn(u.Underlying(), owned, depth+1)
	case *types.Pointer:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Slice:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Array:
		return ownedIn(u.Elem(), owned, depth+1)
	case *types.Map:
		return ownedIn(u.Elem(), owned, depth+1)
	}
	return nil
}

// typeKey identifies a named type across the source/export-data
// identity split: "taq/internal/core.tracker".
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// ownerLabel names a shard-owned type for diagnostics: "core.tracker".
func ownerLabel(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Name() + "." + tn.Name()
}

// modulePathOf returns the leading path element, enough to separate
// this module's packages from stdlib and external leaves.
func modulePathOf(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// WriteAnnotations prints the shardowned/crossshard annotation
// inventory. The output is byte-stable so TestRepoIsClean can compare it
// against the committed docs/taq-annotations.txt baseline and catch an
// annotation silently added or dropped — the same drift gate the
// hotpath closure has.
func WriteAnnotations(w io.Writer, pkgs []*Package) error {
	c := NewProgram(pkgs).contractsIndex()
	for _, n := range c.shardNames {
		if _, err := fmt.Fprintf(w, "shardowned %s\n", n); err != nil {
			return err
		}
	}
	for _, n := range c.crossNames {
		if _, err := fmt.Fprintf(w, "crossshard %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total %d shardowned, %d crossshard\n", len(c.shardNames), len(c.crossNames))
	return err
}
