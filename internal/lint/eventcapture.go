package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EventClosureCaptureAnalyzer implements the event-closure-capture
// rule. A closure handed to sim.Engine.At/After/Tick fires later, at
// its simulated timestamp — but it reads captured variables at *fire*
// time. When the scheduling code keeps mutating a captured variable
// after the call (directly below it, or on the next loop iteration),
// the event's behavior depends on what the scheduler happened to do in
// the meantime, not on the values at schedule time. That coupling is
// exactly what breaks when events are reordered or when code is
// hoisted during refactors.
//
// Flagged: a function literal passed to At/After/Tick that captures a
// variable of the enclosing function (a local, a parameter or the
// receiver) which is (a) written after the scheduling call, or (b)
// declared outside an enclosing loop and written inside it while the
// call is also inside that loop (mutated across iterations while the
// event is pending). Writes inside
// function literals (including the closure itself) are event-time
// state and are fine. The fix is to bind a per-iteration copy
// (`v := v`) or pass the value explicitly at schedule time.
var EventClosureCaptureAnalyzer = &Analyzer{
	Name: "event-closure-capture",
	Doc:  "flag sim-scheduled closures that capture variables mutated before the event fires",
	Run:  runEventClosureCapture,
}

func runEventClosureCapture(p *Pass) {
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkScheduledClosures(p, fd)
			return true
		})
	}
}

// checkScheduledClosures checks the closures fd's body schedules. A
// captured variable counts as the function's own when fd declares it:
// a receiver, a parameter or a local.
func checkScheduledClosures(p *Pass, fd *ast.FuncDecl) {
	body := fd.Body
	// Every function-literal span in the body: writes inside any of
	// them happen at event-fire time, not scheduler time.
	var litSpans []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			litSpans = append(litSpans, fl)
		}
		return true
	})
	inAnyLit := func(pos token.Pos) bool {
		for _, fl := range litSpans {
			if pos >= fl.Pos() && pos < fl.End() {
				return true
			}
		}
		return false
	}

	// Enclosing loops, innermost last, for the cross-iteration check.
	var loops []ast.Node
	collectLoops := func(call *ast.CallExpr) []ast.Node {
		var enclosing []ast.Node
		for _, l := range loops {
			if call.Pos() >= l.Pos() && call.Pos() < l.End() {
				enclosing = append(enclosing, l)
			}
		}
		return enclosing
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.funcFor(call.Fun)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || !simSchedulers[fn.Name()] || !pathIsSimEngine(recvPkgPath(sig), sig) {
			return true
		}
		for _, arg := range call.Args {
			fl, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			checkClosureCaptures(p, fd, call, fl, inAnyLit, collectLoops(call))
		}
		return true
	})
}

// checkClosureCaptures inspects one scheduled closure's free variables
// for mutate-before-fire hazards.
func checkClosureCaptures(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, fl *ast.FuncLit,
	inAnyLit func(token.Pos) bool, enclosingLoops []ast.Node) {

	reported := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || reported[obj] {
			return true
		}
		// Free variable: declared by the enclosing function (its
		// receiver, a parameter, or a local before the closure) — not a
		// package-level or closure-own variable, not a field.
		if obj.Pos() < fd.Pos() || obj.Pos() >= fd.End() || (obj.Pos() >= fl.Pos() && obj.Pos() < fl.End()) {
			return true
		}
		if hazard := mutateBeforeFire(p, fd.Body, call, obj, inAnyLit, enclosingLoops); hazard != "" {
			reported[obj] = true
			p.Report("event-closure-capture", id.Pos(),
				"closure scheduled by Engine.%s captures %s, which is %s; the event will read the mutated value at fire time — bind a copy (%s := %s) or pass the value at schedule time",
				schedulerName(p, call), obj.Name(), hazard, obj.Name(), obj.Name())
		}
		return true
	})
}

func schedulerName(p *Pass, call *ast.CallExpr) string {
	if fn := p.funcFor(call.Fun); fn != nil {
		return fn.Name()
	}
	return "At"
}

// mutateBeforeFire describes how obj is mutated between scheduling and
// firing, or returns "" when it is not.
//
// Only direct rebinding of the variable itself counts (`v = ...`,
// `v++`): that is the classic capture hazard where the closure observes
// a different binding than the one live at schedule time. Field and
// index writes *through* the variable (`rig.RM.X = 5`, `f.done = fn`)
// are deliberately excluded — capturing a struct or pointer and
// mutating its fields is the normal live-state pattern of the
// single-threaded engine, and the mutation order is itself
// deterministic event-loop order.
func mutateBeforeFire(p *Pass, body *ast.BlockStmt, call *ast.CallExpr, obj types.Object,
	inAnyLit func(token.Pos) bool, enclosingLoops []ast.Node) string {

	// The innermost loop that both contains the call and was declared
	// after obj: writes anywhere in it run again before the event fires.
	var loop ast.Node
	for _, l := range enclosingLoops {
		if obj.Pos() < l.Pos() {
			loop = l // keep innermost (slice is outermost-first)
		}
	}

	hazard := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		var target ast.Expr
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if directIdentObj(p, lhs) == obj {
					target = lhs
					break
				}
			}
		case *ast.IncDecStmt:
			if directIdentObj(p, x.X) == obj {
				target = x.X
			}
		}
		if target == nil {
			return true
		}
		pos := target.Pos()
		if inAnyLit(pos) {
			return true // event-time mutation, not scheduler-time
		}
		switch {
		case pos >= call.End():
			hazard = "mutated after the event is scheduled"
		case loop != nil && pos >= loop.Pos() && pos < loop.End():
			hazard = "mutated across loop iterations while the event is pending"
		}
		return hazard == ""
	})
	return hazard
}

// directIdentObj resolves e to its object only when e is the bare
// identifier (possibly parenthesized) — not a field/index expression
// rooted at it.
func directIdentObj(p *Pass, e ast.Expr) types.Object {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
