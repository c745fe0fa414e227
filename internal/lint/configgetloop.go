package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConfigGetLoopAnalyzer implements the config-get-in-loop rule: inside
// the hot scheduling packages (internal/mapreduce, internal/yarn,
// internal/cluster) no loop body may call mrconf.Config methods —
// Get and With hash the parameter name on every call (With also copies
// the parameter array), a per-iteration tax on the scheduling tick. The
// fix is to hoist one cfg.Snapshot() above the loop and read the
// task-local snapshot (array-indexed, allocation-free) inside it; the
// Snapshot call itself is therefore exempt.
var ConfigGetLoopAnalyzer = &Analyzer{
	Name: "config-get-in-loop",
	Doc:  "flag mrconf Config accessor calls inside loops in hot packages; hoist a Snapshot instead",
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
			if !ok || sig.Recv() == nil || !recvIsMrconfConfig(sig) {
				return true
			}
			// Snapshot is the sanctioned way to pay the lookup cost once;
			// calling it per outer item (e.g. per task in a dispatch loop)
			// is exactly the hoist the rule asks for.
			if fn.Name() == "Snapshot" {
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
				"mrconf.Config.%s called inside a loop in a hot package; hoist cfg.Snapshot() out of the loop and read the snapshot", fn.Name())
			return true
		})
	}
}
