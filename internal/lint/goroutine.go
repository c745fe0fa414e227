package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineInSimAnalyzer implements the no-goroutine-in-sim rule. The
// discrete-event engine is single-threaded by design: every state
// change happens inside an event callback, and same-timestamp events
// fire in scheduling order. That invariant is what makes runs
// bit-reproducible. A goroutine, channel, or ad-hoc sync.*
// coordination inside a simulated package introduces OS scheduler
// ordering into the model — irreproducible by construction.
//
// The rule forbids `go` statements, channel types and operations
// (send, receive, select, close, range-over-channel), and any use of
// sync / sync/atomic inside the simulated packages. The sanctioned
// concurrency lives in internal/experiments (the fan-out worker pool
// that runs *whole simulations* in parallel), which is not a simulated
// package and is therefore exempt. Test files are also exempt: tests
// may legitimately exercise the engine from multiple goroutines to
// prove it detects misuse.
var GoroutineInSimAnalyzer = &Analyzer{
	Name: "no-goroutine-in-sim",
	Doc:  "forbid goroutines, channels, and sync primitives inside simulated packages (single-threaded event-loop invariant)",
	Run:  runGoroutineInSim,
}

// simulatedPkgs are the import-path suffixes of the packages whose
// state may only change inside sim event callbacks.
var simulatedPkgs = []string{
	"internal/sim",
	"internal/cluster",
	"internal/hdfs",
	"internal/yarn",
	"internal/mapreduce",
	"internal/faults",
	"internal/tuner",
}

func runGoroutineInSim(p *Pass) {
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
	const rule = "no-goroutine-in-sim"
	for _, file := range p.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				p.Report(rule, x.Pos(),
					"go statement in a simulated package breaks the single-threaded event-loop invariant; schedule a sim event instead")
			case *ast.SendStmt:
				p.Report(rule, x.Pos(),
					"channel send in a simulated package introduces OS-scheduler ordering; use sim events")
			case *ast.UnaryExpr:
				if x.Op.String() == "<-" {
					p.Report(rule, x.Pos(),
						"channel receive in a simulated package introduces OS-scheduler ordering; use sim events")
				}
			case *ast.SelectStmt:
				p.Report(rule, x.Pos(),
					"select in a simulated package introduces nondeterministic case choice; use sim events")
			case *ast.ChanType:
				p.Report(rule, x.Pos(),
					"channel type in a simulated package invites cross-goroutine ordering; simulated state must change only inside event callbacks")
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(x.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						p.Report(rule, x.Pos(),
							"range over channel in a simulated package introduces OS-scheduler ordering; use sim events")
					}
				}
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
						path := pn.Imported().Path()
						if path == "sync" || path == "sync/atomic" {
							p.Report(rule, x.Pos(),
								"%s.%s in a simulated package is ad-hoc cross-goroutine ordering; the event loop is the only scheduler",
								pn.Imported().Name(), x.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}
}
