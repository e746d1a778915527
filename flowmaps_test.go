package taq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoFlowKeyedMaps keeps per-flow state where ids are dense: the
// network numbers its flows 0, 1, 2, …, so a table indexed by id holds
// what a map keyed by packet.FlowID would, and walks it in id order
// without sorting keys. It parses every non-test Go file of the module
// and fails on a map keyed by FlowID outside internal/core (whose flow
// ids come off the wire and are not dense), and on any map at all in
// internal/topology and internal/workload, which sit on the delivery
// path.
func TestNoFlowKeyedMaps(t *testing.T) {
	noMaps := map[string]bool{"internal/topology": true, "internal/workload": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isFlowID := flowIDType(file)
		ast.Inspect(file, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			switch {
			case noMaps[dir]:
				t.Errorf("%s: a map in %s; index per-flow state by id", fset.Position(m.Pos()), dir)
			case isFlowID(m.Key) && dir != "internal/core":
				t.Errorf("%s: a map keyed by FlowID outside internal/core; index it by id", fset.Position(m.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// flowIDType returns whether an expression of file names the flow id
// type: FlowID qualified by an import of the packet package or of the
// facade (which aliases it), or bare inside either package.
func flowIDType(file *ast.File) func(ast.Expr) bool {
	quals := map[string]bool{}
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "taq/internal/packet" && path != "taq" {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		quals[name] = true
	}
	inOwnPackage := file.Name.Name == "packet" || file.Name.Name == "taq"
	return func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return inOwnPackage && e.Name == "FlowID"
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && quals[x.Name] && e.Sel.Name == "FlowID"
		}
		return false
	}
}
