package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConfigGetLoopAnalyzer implements the config-get-in-loop rule: inside
// the hot scheduling packages (internal/mapreduce, internal/yarn,
// internal/cluster) no loop body may call a name-keyed mrconf.Config
// method — one whose first parameter is a string, such as Get and With.
// Those hash the parameter name on every call (an effective With also
// copies the parameter array), a per-iteration tax on the scheduling
// tick. The fix is a typed accessor (cfg.SortMB(), an array index load)
// or a value read once above the loop. Typed accessors, WithID and the
// other methods without a name argument are exempt.
var ConfigGetLoopAnalyzer = &Analyzer{
	Name: "config-get-in-loop",
	Doc:  "flag name-keyed mrconf Config calls (Get, With) inside loops in hot packages; use a typed accessor instead",
	Run:  runConfigGetLoop,
}

// configLoopHotPkgs are the package-path suffixes where per-iteration
// Config lookups are a measured tax (suffix-matched so test fixtures
// qualify too).
var configLoopHotPkgs = []string{
	"internal/mapreduce",
	"internal/yarn",
	"internal/cluster",
}

func runConfigGetLoop(p *Pass) {
	hot := false
	for _, suffix := range configLoopHotPkgs {
		if pathHasSuffix(p.Pkg.Path(), suffix) {
			hot = true
			break
		}
	}
	if !hot {
		return
	}
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		// Pass 1: collect every loop body span in the file.
		type span struct{ lo, hi token.Pos }
		var loops []span
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, span{s.Body.Pos(), s.Body.End()})
			case *ast.RangeStmt:
				loops = append(loops, span{s.Body.Pos(), s.Body.End()})
			}
			return true
		})
		if len(loops) == 0 {
			continue
		}
		// Pass 2: flag Config method calls positioned inside any span.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := p.funcFor(sel)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !recvIsMrconfConfig(sig) || !firstParamIsString(sig) {
				return true
			}
			inLoop := false
			for _, l := range loops {
				if call.Pos() >= l.lo && call.Pos() < l.hi {
					inLoop = true
					break
				}
			}
			if !inLoop {
				return true
			}
			p.Report("config-get-in-loop", call.Pos(),
				"mrconf.Config.%s hashes a parameter name inside a loop in a hot package; use a typed accessor or read the value once above the loop", fn.Name())
			return true
		})
	}
}

// firstParamIsString reports whether sig takes a string first, the
// shape of Config's name-keyed methods.
func firstParamIsString(sig *types.Signature) bool {
	if sig.Params().Len() == 0 {
		return false
	}
	b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}
