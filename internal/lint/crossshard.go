package lint

import (
	"go/ast"
	"go/types"
)

// CrossShardEventAnalyzer implements the cross-shard-event rule. In the
// sharded engine every scheduled callback runs with the affinity of the
// shard it was scheduled on, and may only touch that shard's state;
// the one sanctioned way to reach another shard is the owning shard's
// Send method. A closure scheduled on shard X that calls a scheduling
// method (At/After/Tick/Reschedule/Cancel/Send) through a *different*
// shard or engine handle is therefore a hidden cross-shard mutation.
// The engine fires it in the right global order, but it breaks the
// ownership the model is built on: a rack cell is self-contained only
// if nothing reaches into its queue except a Send, whose delay is part
// of the model.
//
// Flagged: inside a function literal passed to a scheduling method on
// a sim Shard or Engine, any scheduling call whose receiver expression
// differs from the receiver expression of the outer scheduling call.
// Receivers are compared as ident/selector paths (`j.shard`, `s`,
// `fb.shard`); a receiver that is not a plain path (method call,
// index) cannot be attributed and is skipped — the rule is
// deliberately conservative. The fix is either to schedule through the
// same handle the closure runs on, or to route the hop through
// `own.Send(other, delay, fn)` (Send's receiver is the owning shard;
// its destination argument is free).
var CrossShardEventAnalyzer = &Analyzer{
	Name: "cross-shard-event",
	Doc:  "flag sim-scheduled closures that schedule through a different shard handle instead of the cross-shard Send API",
	Run:  runCrossShardEvent,
}

// shardSchedulers are the scheduling methods whose receiver pins shard
// affinity. Send is included: calling other.Send(...) from a closure
// that runs on s is just as cross-shard as other.At(...).
var shardSchedulers = map[string]bool{
	"At": true, "After": true, "Tick": true,
	"Reschedule": true, "Cancel": true, "Send": true,
}

func runCrossShardEvent(p *Pass) {
	simulated := false
	for _, suffix := range simulatedPkgs {
		if pathHasSuffix(p.Pkg.Path(), suffix) {
			simulated = true
			break
		}
	}
	if !simulated {
		return
	}
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			outer, outerPath := schedulingCall(p, call)
			if outer == "" {
				return true
			}
			if outer == "Send" {
				// A Send closure fires on the destination shard, so that
				// is the affinity its body must honor.
				if len(call.Args) == 0 {
					return true
				}
				if outerPath = receiverPath(call.Args[0]); outerPath == "" {
					return true
				}
			}
			if outerPath == "" {
				return true
			}
			for _, arg := range call.Args {
				fl, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkShardAffinity(p, fl, outer, outerPath)
			}
			return true
		})
	}
}

// schedulingCall reports the method name and receiver path of call if
// it is a scheduling call on a sim Shard or Engine with a plain-path
// receiver; otherwise ("", "").
func schedulingCall(p *Pass, call *ast.CallExpr) (method, recvPath string) {
	fn := p.funcFor(call.Fun)
	if fn == nil || !shardSchedulers[fn.Name()] {
		return "", ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !pathIsSimEngine(recvPkgPath(sig), sig) {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return fn.Name(), receiverPath(sel.X)
}

// receiverPath renders e as a dotted ident path ("j.shard", "s"), or
// "" when e is anything but parenthesized idents and field selections.
func receiverPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := receiverPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// checkShardAffinity walks a scheduled closure and reports scheduling
// calls whose receiver path differs from the outer scheduling
// receiver. Nested scheduled closures are skipped here — the outer
// file walk reaches their scheduling call and checks their bodies
// against their own receiver.
func checkShardAffinity(p *Pass, fl *ast.FuncLit, outerMethod, outerPath string) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, path := schedulingCall(p, call)
		if method == "" {
			return true
		}
		if path != "" && path != outerPath {
			p.Report("cross-shard-event", call.Pos(),
				"closure scheduled via %s.%s calls %s.%s on a different shard handle; a callback owns only its shard's state — schedule through %s, or hop shards with %s.Send",
				outerPath, outerMethod, path, method, outerPath, outerPath)
		}
		// A scheduled closure hanging off this inner call is governed
		// by the inner call's own receiver; don't rescan it against the
		// outer one.
		for _, arg := range call.Args {
			if _, isLit := arg.(*ast.FuncLit); isLit {
				return false
			}
		}
		return true
	})
}
