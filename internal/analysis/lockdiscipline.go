package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline checks the locking contract of every struct with a
// sync.Mutex (or RWMutex) field, in any package: the guarded fields are
// those some method mutates, and exported methods must acquire the
// mutex (recv.mu.Lock or RLock, anywhere lexically before the access,
// including inside the same closure) before touching one. Fields
// written only at construction time are immutable and stay exempt,
// which is exactly why emu's Engine.Now may read start/speedup without
// the lock.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "exported methods must hold the mutex before touching guarded fields",
	Run:  runLockDiscipline,
}

func runLockDiscipline(p *Pass) {
	info := p.Pkg.Info

	// Pass 1: find struct types with a mutex field, and every method's
	// receiver object, grouped by the receiver's named type.
	type lockedType struct {
		named      *types.Named
		mutexField string
		guarded    map[string]bool
		methods    []*ast.FuncDecl
		recvs      map[*ast.FuncDecl]types.Object
	}
	byType := make(map[*types.TypeName]*lockedType)

	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			named := receiverNamed(info, fd)
			if named == nil {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			mf := mutexFieldName(st)
			if mf == "" {
				continue
			}
			lt := byType[named.Obj()]
			if lt == nil {
				lt = &lockedType{
					named:      named,
					mutexField: mf,
					guarded:    make(map[string]bool),
					recvs:      make(map[*ast.FuncDecl]types.Object),
				}
				byType[named.Obj()] = lt
			}
			lt.methods = append(lt.methods, fd)
			if len(fd.Recv.List[0].Names) > 0 {
				lt.recvs[fd] = info.Defs[fd.Recv.List[0].Names[0]]
			}
		}
	}

	// Pass 2: guarded fields are those any method writes. Constructors
	// are plain functions, so construction-time writes don't count.
	for _, lt := range byType {
		for _, fd := range lt.methods {
			recv := lt.recvs[fd]
			if recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if name := recvFieldName(info, lhs, recv, lt.mutexField); name != "" {
							lt.guarded[name] = true
						}
					}
				case *ast.IncDecStmt:
					if name := recvFieldName(info, n.X, recv, lt.mutexField); name != "" {
						lt.guarded[name] = true
					}
				}
				return true
			})
		}
	}

	// Pass 3: exported methods must lock before the first guarded access.
	for _, lt := range byType {
		if len(lt.guarded) == 0 {
			continue
		}
		for _, fd := range lt.methods {
			recv := lt.recvs[fd]
			if recv == nil || !fd.Name.IsExported() {
				continue
			}
			var firstAccess token.Pos
			var firstField string
			var firstLock token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isMutexLock(info, n, recv, lt.mutexField) {
						if !firstLock.IsValid() || n.Pos() < firstLock {
							firstLock = n.Pos()
						}
					}
				case *ast.SelectorExpr:
					name := recvFieldSel(info, n, recv, lt.mutexField)
					if name != "" && lt.guarded[name] {
						if !firstAccess.IsValid() || n.Pos() < firstAccess {
							firstAccess = n.Pos()
							firstField = name
						}
					}
				}
				return true
			})
			if firstAccess.IsValid() && (!firstLock.IsValid() || firstLock > firstAccess) {
				p.Reportf(firstAccess,
					"%s.%s touches guarded field %q without %s.%s.Lock() first",
					lt.named.Obj().Name(), fd.Name.Name, firstField,
					recv.Name(), lt.mutexField)
			}
		}
	}
}

// mutexFieldName returns the name of the struct's sync.Mutex/RWMutex
// field, or "".
func mutexFieldName(st *types.Struct) string {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		named, ok := f.Type().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() == "sync" &&
			(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex") {
			return f.Name()
		}
	}
	return ""
}

// recvFieldSel returns the field name when sel is recv.<field> (not the
// mutex itself), else "".
func recvFieldSel(info *types.Info, sel *ast.SelectorExpr, recv types.Object, mutexField string) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || info.Uses[id] != recv {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	if sel.Sel.Name == mutexField {
		return ""
	}
	return sel.Sel.Name
}

// recvFieldName resolves an lvalue of the form recv.field (possibly
// nested deeper, e.g. recv.field.sub or recv.field[i]) to field.
func recvFieldName(info *types.Info, e ast.Expr, recv types.Object, mutexField string) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if name := recvFieldSel(info, x, recv, mutexField); name != "" {
				return name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// isMutexLock reports whether call is recv.<mutexField>.Lock/RLock().
func isMutexLock(info *types.Info, call *ast.CallExpr, recv types.Object, mutexField string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != mutexField {
		return false
	}
	id, ok := ast.Unparen(inner.X).(*ast.Ident)
	return ok && info.Uses[id] == recv
}

// receiverNamed resolves the receiver's named type (through pointers).
func receiverNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
