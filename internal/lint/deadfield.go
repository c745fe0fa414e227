package lint

import "go/types"

// DeadFieldAnalyzer implements the dead-field rule: an unexported
// struct field, declared in a non-test file, that no non-test file
// reads is state kept up to date for nobody. Writes are not reads: the
// left side of an assignment (op= included), x.f++ and x.f--, and a
// composite-literal key. A struct used as a map key or compared with
// == or != has every field read. Embedded fields are not checked.
//
// A field read only by tests is reported too: delete it and let the
// test read state that production keeps, or keep it under a reasoned
// //mrlint:ignore dead-field directive that names the test. So is a
// field that reaches output only through %v; the goldens catch its
// deletion, and it takes a directive.
var DeadFieldAnalyzer = &Analyzer{
	Name:      "dead-field",
	Doc:       "every unexported struct field must have a non-test read: delete write-only state",
	RunModule: runDeadField,
}

func runDeadField(mp *ModulePass) {
	used, _ := mp.nonTestUses()
	for _, pkg := range mp.Module.Packages {
		for _, obj := range pkg.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Exported() || v.Embedded() || v.Name() == "_" || used[v] || mp.isTest(v.Pos()) {
				continue
			}
			mp.Report("dead-field", v.Pos(), nil,
				"field %s is never read outside tests; delete it with its writes, or keep it with a reasoned ignore", v.Name())
		}
	}
}
