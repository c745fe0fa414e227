package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnlyExportAnalyzer implements the test-only-export rule: an
// exported name declared in a non-test file under internal/ that no
// non-test file of the module uses is API kept alive only by its tests.
// Each finding is settled one of three ways: delete the name (with the
// tests that cover only it), make it a test hook (unexport it, or move
// it into an export_test.go), or keep it under a reasoned
// //mrlint:ignore test-only-export directive.
//
// Checked: exported package-level funcs, types, vars and consts, and
// exported methods on exported types. A use counts when it lies in a
// non-test file anywhere in the module (cmd/ and examples/ included)
// and outside the name's own declaration, so a function whose only
// caller is itself is still reported; for a type, its declaration
// includes its methods. Not checked: struct fields, interface methods,
// and any method that implements a method of an interface the module
// can see (one it names, or one in the signature of a function it
// uses), nor the std methods reached by dynamic dispatch (String,
// Error, MarshalJSON, ...). A type's methods are not reported
// separately when the type itself is.
//
// The loader does not descend into nested modules, so a use from
// cmd/mrbench (its own module) does not count; building that module
// catches a deletion that breaks it.
var TestOnlyExportAnalyzer = &Analyzer{
	Name:      "test-only-export",
	Doc:       "exported internal/ API must have a non-test user: delete it, make it a test hook, or keep it with a reason",
	RunModule: runTestOnlyExport,
}

// dynamicMethods are the std interface methods called through
// reflection or an unnamed interface (fmt, encoding/json, errors), keyed
// by name with their parameter and result types.
var dynamicMethods = map[string]string{
	"String":        "() string",
	"GoString":      "() string",
	"Error":         "() string",
	"Unwrap":        "() error",
	"MarshalJSON":   "() []byte, error",
	"UnmarshalJSON": "([]byte) error",
	"MarshalText":   "() []byte, error",
	"UnmarshalText": "([]byte) error",
}

// sigKey renders a signature's parameter and result types without
// their names, in the form dynamicMethods uses.
func sigKey(sig *types.Signature) string {
	list := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), nil)
		}
		return strings.Join(parts, ", ")
	}
	return "(" + list(sig.Params()) + ") " + list(sig.Results())
}

func runTestOnlyExport(mp *ModulePass) {
	m := mp.Module
	isTest := func(pos token.Pos) bool {
		return strings.HasSuffix(m.Fset.Position(pos).Filename, "_test.go")
	}

	// Declaration extents: a use inside the used name's own extent does
	// not count.
	extent := make(map[types.Object][]ast.Node)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					extent[fn] = append(extent[fn], d)
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if named, ok := t.(*types.Named); ok {
							extent[named.Obj()] = append(extent[named.Obj()], d)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := pkg.Info.Defs[s.Name]
							extent[obj] = append(extent[obj], s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := pkg.Info.Defs[name]
								extent[obj] = append(extent[obj], s)
							}
						}
					}
				}
			}
		}
	}

	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, pkg := range m.Packages {
		for id, obj := range pkg.Info.Uses {
			switch o := obj.(type) {
			case *types.TypeName:
				addIface(o.Type())
			case *types.Func:
				obj = o.Origin()
				sig := o.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			case *types.Var:
				obj = o.Origin()
			}
			if isTest(id.Pos()) || within(extent[obj], id.Pos()) {
				continue
			}
			used[obj] = true
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	implements := func(fn *types.Func, named *types.Named) bool {
		if want, ok := dynamicMethods[fn.Name()]; ok && sigKey(fn.Type().(*types.Signature)) == want {
			return true
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	report := func(obj types.Object, what, name string) {
		mp.Report("test-only-export", obj.Pos(), nil,
			"%s %s.%s has no non-test user; delete it, unexport it or move it to export_test.go, or keep it with a reasoned ignore",
			what, obj.Pkg().Name(), name)
	}
	for _, pkg := range m.Packages {
		rel := mp.Rel(pkg.Dir)
		if !strings.HasPrefix(rel+"/", "internal/") || strings.HasSuffix(pkg.ImportPath, ".test") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || isTest(obj.Pos()) {
				continue
			}
			if !used[obj] {
				report(obj, kindOf(obj), name)
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() || isTest(fn.Pos()) || used[fn] || implements(fn, named) {
					continue
				}
				report(fn, "method", name+"."+fn.Name())
			}
		}
	}
}

// within reports whether pos lies inside any of the nodes.
func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
