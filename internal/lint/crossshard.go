package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CrossShardEventAnalyzer implements the cross-shard-event rule. In the
// sharded engine every scheduled callback runs with the affinity of the
// shard it was scheduled on, and may only touch that shard's state;
// the one sanctioned way to reach another shard is the owning shard's
// Send method. A closure scheduled on shard X that calls a scheduling
// method (At/After/Tick/Reschedule/Cancel/Send) through a *different*
// shard or engine handle is therefore a latent cross-shard mutation:
// harmless under the serial engine (which fires everything in global
// order anyway), a determinism bug or a data race the moment the same
// model runs under parallel windows.
//
// The rule also enforces the parallel-window timing contract on Send
// itself: a Send whose delay argument is a compile-time constant below
// MinSendDelaySecs is flagged wherever it appears. Such a send is
// harmless on the serial engine but panics the moment the model runs
// under parallel windows (sim.Shard.Send rejects delays below the
// configured lookahead), so the linter rejects it statically. Delays
// that are not constants cannot be judged here and are left to the
// runtime check.
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

// MinSendDelaySecs is the smallest constant Send delay the rule
// accepts: the parallel-window lookahead the serving path runs with
// (experiments.StreamSubmitDelaySecs). A model whose cross-shard
// sends all cover this bound can run under parallel windows at that
// lookahead without the runtime delay check ever firing.
const MinSendDelaySecs = 1.0

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
				checkSendDelay(p, call)
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

// checkSendDelay flags a Send whose delay argument constant-folds to a
// value below MinSendDelaySecs. The type checker has already folded
// named constants and constant arithmetic, so `s.Send(d, shortConst,
// fn)` is caught no matter how the constant is spelled; non-constant
// delays are skipped (the engine's runtime check owns those).
func checkSendDelay(p *Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	v := p.Info.Types[call.Args[1]].Value
	if v == nil || (v.Kind() != constant.Int && v.Kind() != constant.Float) {
		return
	}
	delay, _ := constant.Float64Val(v)
	if delay >= MinSendDelaySecs {
		return
	}
	p.Report("cross-shard-event", call.Pos(),
		"Send with constant delay %v below the parallel-window lookahead %v; the engine rejects such sends under parallel windows — widen the delay or restructure the interaction to stay shard-local",
		delay, MinSendDelaySecs)
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
