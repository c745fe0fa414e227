package lint

import (
	"go/ast"
	"go/types"
)

// MapIterAnalyzer implements the ordered-map-iter rule. Go randomizes
// map iteration order on purpose, so a `range` over a map whose body
// has an order-sensitive effect — appending to a slice, writing output,
// or scheduling simulation events — produces different results on every
// run. Order-insensitive bodies (summing, counting, writing into
// another map) are fine and not flagged.
//
// The canonical safe pattern is recognized: a loop that only collects
// keys/values into a slice is allowed when that slice is passed to a
// sort call (sort.Strings, sort.Slice, slices.Sort, sort.Sort, ...)
// later in the same function.
var MapIterAnalyzer = &Analyzer{
	Name: "ordered-map-iter",
	Doc:  "flag map iteration whose order reaches slices, output, or the event queue unsorted",
	Run:  runMapIter,
}

// outputFuncs are package-level printers whose call order is the output
// order.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writeMethods order bytes into a stream or builder.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
}

// simSchedulers are the sim.Engine entry points that enqueue events;
// enqueue order is tie-break order for same-timestamp events.
var simSchedulers = map[string]bool{"At": true, "After": true, "Tick": true}

func runMapIter(p *Pass) {
	// Examine each function body independently so the sorted-later
	// escape can search the enclosing function.
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkFuncMapRanges(p, body)
			return true // keep descending: nested func lits are revisited with their own scope
		})
	}
}

// checkFuncMapRanges flags order-sensitive map ranges directly inside
// this function body (nested function literals are handled by their own
// visit).
func checkFuncMapRanges(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed separately
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(p, body, rs)
		return true
	})
}

func checkMapRangeBody(p *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if e != rs {
				// Inner ranges get their own report if they are map
				// ranges; their bodies shouldn't double-report here.
				if t := p.Info.TypeOf(e.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
			return true
		case *ast.CallExpr:
			reportMapRangeCall(p, funcBody, rs, e)
			return true
		}
		return true
	})
}

// reportMapRangeCall decides whether one call inside a map-range body is
// an order-sensitive effect and reports it.
func reportMapRangeCall(p *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, call *ast.CallExpr) {
	// append(s, ...) — order-sensitive unless s is sorted later in the
	// same function.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			target := rootIdentObj(p, call.Args[0])
			if target != nil && sortedAfter(p, funcBody, rs, target) {
				return
			}
			// A slice declared inside the loop (including the range
			// variables themselves) is rebuilt every iteration: nothing
			// accumulates across iterations, so iteration order cannot
			// leak through it. Likewise when the first argument has no
			// identifier root (append([]T{}, ...), append(f(), ...)):
			// each iteration appends to a fresh value.
			if target == nil || (target.Pos() >= rs.Pos() && target.Pos() < rs.End()) {
				return
			}
			p.Report("ordered-map-iter", call.Pos(),
				"append inside range over map %s leaks nondeterministic iteration order into a slice; collect keys and sort them first",
				exprString(rs.X))
			return
		}
	}

	fn := p.funcFor(call.Fun)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)

	// Package-level printers: fmt.Printf and friends.
	if sig != nil && sig.Recv() == nil && pkgPath(fn) == "fmt" && outputFuncs[fn.Name()] {
		p.Report("ordered-map-iter", call.Pos(),
			"fmt.%s inside range over map %s writes output in nondeterministic iteration order; sort the keys first",
			fn.Name(), exprString(rs.X))
		return
	}

	if sig == nil || sig.Recv() == nil {
		return
	}
	recvPkg := recvPkgPath(sig)

	// Stream/builder writers: w.Write, b.WriteString, ...
	if writeMethods[fn.Name()] {
		p.Report("ordered-map-iter", call.Pos(),
			"%s inside range over map %s writes output in nondeterministic iteration order; sort the keys first",
			fn.Name(), exprString(rs.X))
		return
	}

	// Simulation event scheduling: engine.At/After/Tick.
	if simSchedulers[fn.Name()] && pathIsSimEngine(recvPkg, sig) {
		p.Report("ordered-map-iter", call.Pos(),
			"scheduling sim events inside range over map %s makes same-timestamp tie-breaking (seq order) nondeterministic; sort the keys first",
			exprString(rs.X))
		return
	}
}

// pathIsSimEngine reports whether the method receiver is the sim
// package's Engine (matched by import-path suffix so fixtures and the
// real tree both qualify). Engine is the only scheduling API, so every
// determinism rule that watches At/After/Tick keys on it.
func pathIsSimEngine(recvPkg string, sig *types.Signature) bool {
	if !pathHasSuffix(recvPkg, "internal/sim") {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Engine"
}

func recvPkgPath(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || (len(path) > len(suffix) &&
		path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix)
}

// rootIdentObj resolves the base identifier of an expression like s,
// s.field, or s[i] to its object, or nil when there isn't a simple one.
func rootIdentObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether obj is passed to a recognized sort call
// somewhere in funcBody after the range statement ends — the
// collect-then-sort idiom.
func sortedAfter(p *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := p.funcFor(call.Fun)
		if fn == nil {
			return true
		}
		if !isSortFunc(fn) {
			return true
		}
		for _, arg := range call.Args {
			if rootIdentObj(p, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortFunc recognizes the standard sorting entry points.
func isSortFunc(fn *types.Func) bool {
	switch pkgPath(fn) {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	default:
		return "map"
	}
}
