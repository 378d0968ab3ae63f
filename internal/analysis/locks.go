package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockInfo is one annotated mutex: a struct field of type sync.Mutex or
// sync.RWMutex carrying a directive comment
//
//	mu sync.Mutex //neurospatial:lock dataset.state noio < dataset.write
//
// Name is the module-wide lock name. NoIO marks a lock whose critical
// sections must not perform file I/O or fsync (the dataset state mutex:
// pointer swaps only). Before lists locks that must already be ordered
// before this one — each entry `< other` declares the edge other→name in
// the acquisition-order graph, and a cycle in the combined declared +
// observed graph is a lockorder finding.
type LockInfo struct {
	Name   string
	NoIO   bool
	Before []string // declared predecessors: they are acquired first
	Pos    token.Pos
	Pkg    *Package
}

// collectLocks scans pkg for //neurospatial:lock annotations on mutex-typed
// struct fields and registers them by field object and by name.
func (m *Module) collectLocks(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				info := parseLockDirective(field)
				if info == nil {
					continue
				}
				for _, name := range field.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil || !isMutexType(obj.Type()) {
						continue
					}
					info.Pos = name.Pos()
					info.Pkg = pkg
					m.locks[obj] = info
					m.lockByName[info.Name] = info
				}
			}
			return true
		})
	}
}

// parseLockDirective reads a field's comments for the lock annotation.
func parseLockDirective(field *ast.Field) *LockInfo {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//neurospatial:lock ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			info := &LockInfo{Name: fields[0]}
			args := fields[1:]
			for len(args) > 0 {
				switch args[0] {
				case "noio":
					info.NoIO = true
					args = args[1:]
				case "<":
					if len(args) < 2 {
						args = nil
						break
					}
					info.Before = append(info.Before, args[1])
					args = args[2:]
				default:
					args = args[1:]
				}
			}
			return info
		}
	}
	return nil
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// LockOf resolves a mutex expression (the X of X.Lock()) to its annotation,
// or nil for unannotated mutexes. Resolution goes through the field object
// of the final selector, so any access path (d.mu, p.mu, s.ds.mu)
// reaches the same LockInfo inside the declaring package.
func (m *Module) LockOf(pkg *Package, e ast.Expr) *LockInfo {
	sel, ok := Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok {
		return m.locks[s.Obj()]
	}
	return m.locks[pkg.Info.Uses[sel.Sel]]
}

// LockByName returns the annotation registered under name, or nil.
func (m *Module) LockByName(name string) *LockInfo { return m.lockByName[name] }

// Locks lists every annotated mutex in the module, sorted by name.
func (m *Module) Locks() []*LockInfo {
	out := make([]*LockInfo, 0, len(m.lockByName))
	for _, info := range m.lockByName {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LockCall classifies a call expression as a lock or unlock of an annotated
// mutex. acquired is true for Lock/RLock, false for Unlock/RUnlock.
func (m *Module) LockCall(pkg *Package, call *ast.CallExpr) (info *LockInfo, acquired, ok bool) {
	sel, isSel := Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquired = true
	case "Unlock", "RUnlock":
		acquired = false
	default:
		return nil, false, false
	}
	info = m.LockOf(pkg, sel.X)
	if info == nil {
		return nil, false, false
	}
	return info, acquired, true
}
