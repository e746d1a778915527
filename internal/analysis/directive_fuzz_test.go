package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzParseDirectives drives the //taq: comment grammar — hotpath,
// allow, allow(func), shardowned, crossshard, and the retired atomic and
// layout words — through the directive parser and the AST-only audit
// collectors (collectAllows, collectMalformed). Two properties hold
// for every input: nothing panics, and a syntactically valid directive
// with an unknown word is always classified malformed, so a typo can
// never silently disable a gate.
func FuzzParseDirectives(f *testing.F) {
	seeds := []string{
		"//taq:hotpath packet path root",
		"//taq:allow wallclock rationale here",
		"//taq:allow wallclock,maprange multi",
		"//taq:allow ,",
		"//taq:allow",
		"//taq:allow(func) noalloc builds into the reused buffer",
		"//taq:allow(func)",
		"//taq:allow(func) noalloc,noblock both",
		"//taq:shardowned per-shard flow state",
		"//taq:crossshard audited aggregator",
		"//taq:atomic cross-shard counter",
		"//taq:layout size=200 align=64 hotbytes=0..136",
		"//taq:layout size=200",
		"//taq:layout size=",
		"//taq:layout size=16 size=16",
		"//taq:layout hotbytes=10..2",
		"//taq:layout hotbytes=0..81",
		"//taq:layout rationale before keys",
		"//taq:alow typo",
		"//taq:",
		"//taq: space",
		"//taq:layout\tsize=8",
		"// not a directive at all",
		"/*taq:hotpath block form is not a directive*/",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		// The raw parser must never panic, whatever the text.
		taqDirective(comment)

		// Embed the text as a line comment in every placement the
		// grammar distinguishes: free-floating, function doc, type
		// doc, field, and var doc.
		line := strings.NewReplacer("\n", " ", "\r", " ").Replace(comment)
		if !strings.HasPrefix(line, "//") {
			line = "//" + line
		}
		src := "package p\n\n" +
			line + "\n\n" +
			line + "\nfunc F() {}\n\n" +
			line + "\ntype T struct {\n\t" + line + "\n\ta int64\n}\n\n" +
			line + "\nvar V int64\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip() // the text broke Go syntax, not our grammar
		}
		pkg := &Package{Path: "fuzz/p", Name: "p", Fset: fset, Files: []*ast.File{file}}
		allows := collectAllows(pkg)
		mal := collectMalformed(pkg)
		allows.stale(map[string]bool{"noalloc": true}, map[string]bool{"noalloc": true})

		// Re-derive the directive from the sanitized line actually
		// placed in the file; an unknown word must be classified.
		if w, _, ok := taqDirective(line); ok && !directiveWords[w] && len(mal) == 0 {
			t.Errorf("unknown directive word %q produced no malformed diagnostic", w)
		}
	})
}
