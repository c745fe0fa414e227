// Package lint implements mrlint, the project's determinism and
// simulation-safety static analysis suite. It is built on the standard
// library only (go/ast, go/parser, go/token, go/types): the build
// environment is offline and the module carries zero dependencies.
//
// The analyzers lock in the invariants that make every simulation
// bit-for-bit reproducible (see docs/LINTING.md):
//
//	no-wallclock          real time never leaks into simulated components
//	no-global-rand        all randomness flows through seeded *rand.Rand
//	ordered-map-iter      map iteration order never reaches output/events
//	float-map-accum       no floating-point accumulation in map-range order
//	nondet-flow           map-iteration order never reaches a sink through calls
//	conf-key-literal      Hadoop parameter names come from mrconf constants
//	config-get-in-loop    hot scheduling loops use typed config accessors, not Get/With
//	mutex-copy            sync.Mutex / sync.WaitGroup never passed by value
//	no-goroutine-in-sim   simulated packages stay single-threaded
//	event-closure-capture scheduled closures snapshot state at schedule time
//	test-only-export      exported internal/ API has a non-test user
//	malformed-directive   every suppression names a rule and a reason
//
// Most rules are intraprocedural and run per package. nondet-flow is
// interprocedural: it builds a module-wide call graph and per-function
// taint summaries (callgraph.go, taint.go) and propagates them to a
// fixpoint, so a nondeterministically ordered value is tracked from its
// source through any chain of calls to an order-sensitive sink. Its
// findings carry the full source→call-chain→sink path (Finding.Path).
//
// Any finding can be suppressed — with a recorded reason — by a
// directive comment on the offending line or on the line directly
// above it:
//
//	//mrlint:ignore <rule>[,<rule>...] <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Step is one hop of a source→sink explanation: where nondeterminism
// entered, which calls carried it, and where it became observable.
type Step struct {
	File string `json:"file"` // module-root-relative path
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Func string `json:"func"` // enclosing function, package-qualified
	What string `json:"what"` // what happens at this hop
}

func (s Step) String() string {
	return fmt.Sprintf("%s:%d:%d: in %s: %s", s.File, s.Line, s.Col, s.Func, s.What)
}

// Finding is one rule violation at a source position. Interprocedural
// findings additionally carry the source→sink path that explains them.
type Finding struct {
	File    string `json:"file"` // module-root-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`

	// Path explains an interprocedural finding as an ordered chain of
	// steps from the nondeterminism source to the order-sensitive sink
	// (nondet-flow only; nil for intraprocedural rules).
	Path []Step `json:"path,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Explain renders the finding with its full path, one hop per indented
// line, so a violation three functions deep reads like a stack trace.
func (f Finding) Explain() string {
	var b strings.Builder
	b.WriteString(f.String())
	for i, s := range f.Path {
		fmt.Fprintf(&b, "\n    %d. %s", i+1, s)
	}
	return b.String()
}

// Analyzer is one named check. Per-package analyzers set Run and see
// one type-checked package at a time; module analyzers set RunModule
// and see the whole module (call graph, taint summaries) at once.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalRandAnalyzer,
		MapIterAnalyzer,
		FloatMapAccumAnalyzer,
		ConfKeyAnalyzer,
		ConfigGetLoopAnalyzer,
		RetainedAppendAnalyzer,
		MutexCopyAnalyzer,
		GoroutineInSimAnalyzer,
		EventClosureCaptureAnalyzer,
		NondetFlowAnalyzer,
		TestOnlyExportAnalyzer,
		MalformedDirectiveAnalyzer,
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list. An empty list selects all.
func Select(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(RuleNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// RuleNames lists every analyzer name.
func RuleNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// knownRule reports whether name is one of the suite's rule names.
func knownRule(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through the per-package
// analyzers.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// ModuleRoot is the absolute directory of the module under
	// analysis; findings report paths relative to it.
	ModuleRoot string

	// ConfKeys holds the canonical Hadoop parameter names: the values
	// of the string constants declared in internal/mrconf. The loader
	// populates it after checking that package.
	ConfKeys map[string]bool

	dirs     *directiveIndex
	findings *[]Finding
}

// NewPass assembles a pass over one package, sharing the module-wide
// directive index (nil to index only this package's own files).
func NewPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, moduleRoot string, dirs *directiveIndex, sink *[]Finding) *Pass {
	if dirs == nil {
		dirs = newDirectiveIndex(fset, moduleRoot)
		for _, f := range files {
			dirs.indexFile(f)
		}
	}
	return &Pass{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		ModuleRoot: moduleRoot,
		findings:   sink,
		dirs:       dirs,
	}
}

// Ignored reports whether findings for rule at pos are suppressed by an
// ignore directive.
func (p *Pass) Ignored(rule string, pos token.Pos) bool {
	return p.dirs.ignored(rule, p.Fset.Position(pos))
}

// Rel converts an absolute file name to a module-root-relative path.
func (p *Pass) Rel(file string) string {
	return relPath(p.ModuleRoot, file)
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// RelFile returns the module-relative path of the file containing pos.
func (p *Pass) RelFile(pos token.Pos) string {
	return p.Rel(p.Fset.Position(pos).Filename)
}

// Report records a finding unless an ignore directive covers it.
func (p *Pass) Report(rule string, pos token.Pos, format string, args ...any) {
	if p.Ignored(rule, pos) {
		return
	}
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:    p.Rel(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ModulePass carries the whole module through the module-level
// analyzers. The call graph and taint summaries are built once, on
// first use, and shared by every module analyzer.
type ModulePass struct {
	Module *Module

	dirs     *directiveIndex
	findings *[]Finding

	cg    *CallGraph
	taint *taintResult
}

// CallGraph returns the module call graph, building it on first use.
func (mp *ModulePass) CallGraph() *CallGraph {
	if mp.cg == nil {
		mp.cg = buildCallGraph(mp.Module)
	}
	return mp.cg
}

// Taint returns the interprocedural taint summaries, computing them on
// first use.
func (mp *ModulePass) Taint() *taintResult {
	if mp.taint == nil {
		mp.taint = computeTaint(mp.Module, mp.CallGraph())
	}
	return mp.taint
}

// Rel converts an absolute file name to a module-root-relative path.
func (mp *ModulePass) Rel(file string) string {
	return relPath(mp.Module.Root, file)
}

// Ignored reports whether findings for rule at pos are suppressed.
func (mp *ModulePass) Ignored(rule string, pos token.Pos) bool {
	return mp.dirs.ignored(rule, mp.Module.Fset.Position(pos))
}

// Report records a module-level finding (with an optional explanation
// path) unless an ignore directive covers its position.
func (mp *ModulePass) Report(rule string, pos token.Pos, path []Step, format string, args ...any) {
	if mp.Ignored(rule, pos) {
		return
	}
	position := mp.Module.Fset.Position(pos)
	*mp.findings = append(*mp.findings, Finding{
		File:    mp.Rel(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Path:    path,
	})
}

// SortFindings orders findings by file, line, column, then rule, so
// output is stable across runs.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// funcFor resolves an identifier or selector use to the *types.Func it
// denotes, or nil.
func (p *Pass) funcFor(expr ast.Expr) *types.Func {
	return funcForInfo(p.Info, expr)
}

// funcForInfo resolves an identifier or selector use to the *types.Func
// it denotes in the given type info, or nil.
func funcForInfo(info *types.Info, expr ast.Expr) *types.Func {
	switch e := expr.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.ParenExpr:
		return funcForInfo(info, e.X)
	}
	return nil
}

// pkgPath returns the import path of the package a function belongs to
// ("" for builtins and universe-scope objects).
func pkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
