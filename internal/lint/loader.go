package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked compilation unit of the module
// under analysis. In-package _test.go files are checked together with
// the package; external test packages (package foo_test) form their own
// unit.
type Package struct {
	// ImportPath is the unit's import path. External test units carry
	// the synthetic suffix ".test" and are never importable.
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is a fully loaded and type-checked module tree.
type Module struct {
	Root     string // absolute module root directory
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // deterministic order (sorted by import path)

	dirs *directiveIndex // lazily built module-wide suppression index
}

// directives returns the module-wide suppression-directive index,
// building it on first use from every file of every package.
func (m *Module) directives() *directiveIndex {
	if m.dirs == nil {
		m.dirs = newDirectiveIndex(m.Fset, m.Root)
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				m.dirs.indexFile(f)
			}
		}
	}
	return m.dirs
}

// Suppressions lists every //mrlint:ignore directive in the module,
// well-formed or not, ordered by file then line — the audit trail for
// `mrlint -suppressions`.
func (m *Module) Suppressions() []Directive {
	return m.directives().sortedList()
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file without
// depending on golang.org/x/mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				continue
			}
			if unquoted, err := strconv.Unquote(rest); err == nil {
				return unquoted, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// dirUnit is the raw parse of one directory before type checking.
type dirUnit struct {
	dir      string
	pkgFiles []*ast.File // package + in-package tests
	extFiles []*ast.File // external test package (foo_test)
	imports  []string    // local (module-internal) imports of pkgFiles
}

// LoadModule parses and type-checks every package in the module rooted
// at root, resolving module-internal imports itself and delegating the
// standard library to the toolchain importer. It returns an error for
// unparseable or untypeable code — mrlint only analyzes code that
// compiles.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	units := make(map[string]*dirUnit) // by import path
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			// A nested module is its own world; don't absorb it.
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(filepath.Base(path), ".") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		u := units[ip]
		if u == nil {
			u = &dirUnit{dir: dir}
			units[ip] = u
		}
		if strings.HasSuffix(file.Name.Name, "_test") {
			u.extFiles = append(u.extFiles, file)
		} else {
			u.pkgFiles = append(u.pkgFiles, file)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	isLocal := func(path string) bool {
		return path == modPath || strings.HasPrefix(path, modPath+"/")
	}
	for _, u := range units {
		seen := make(map[string]bool)
		for _, f := range u.pkgFiles {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !isLocal(p) || seen[p] {
					continue
				}
				seen[p] = true
				u.imports = append(u.imports, p)
			}
		}
		sort.Strings(u.imports)
	}

	// Topologically order the units so every module-internal import is
	// checked before its importers.
	paths := make([]string, 0, len(units))
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = iota
		gray
		black
	)
	state := make(map[string]int)
	var order []string
	var visit func(p string, trail []string) error
	visit = func(p string, trail []string) error {
		u, ok := units[p]
		if !ok {
			return nil // import of a local path with no Go files; types will complain later
		}
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("import cycle: %s -> %s", strings.Join(trail, " -> "), p)
		}
		state[p] = gray
		for _, dep := range u.imports {
			if dep == p {
				continue
			}
			if err := visit(dep, append(trail, p)); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}

	mod := &Module{Root: root, Path: modPath, Fset: fset}
	imp := &moduleImporter{
		modPath:  modPath,
		local:    make(map[string]*types.Package),
		fallback: importer.Default(),
	}

	check := func(ip string, files []*ast.File) (*Package, error) {
		if len(files) == 0 {
			return nil, nil
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", ip, err)
		}
		return &Package{ImportPath: ip, Files: files, Types: pkg, Info: info}, nil
	}

	for _, ip := range order {
		u := units[ip]
		pkg, err := check(ip, u.pkgFiles)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkg.Dir = u.dir
			imp.local[ip] = pkg.Types
			mod.Packages = append(mod.Packages, pkg)
		}
	}
	// External test packages import (at least) their own package, and
	// possibly any other local package, so check them all last.
	for _, ip := range paths {
		u := units[ip]
		ext, err := check(ip+".test", u.extFiles)
		if err != nil {
			return nil, err
		}
		if ext != nil {
			ext.Dir = u.dir
			mod.Packages = append(mod.Packages, ext)
		}
	}
	sort.Slice(mod.Packages, func(i, j int) bool {
		return mod.Packages[i].ImportPath < mod.Packages[j].ImportPath
	})
	return mod, nil
}

// moduleImporter resolves module-internal imports from the packages
// already checked this run, and everything else (the standard library)
// through the compiler's importer.
type moduleImporter struct {
	modPath  string
	local    map[string]*types.Package
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if pkg, ok := m.local[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("internal import %q not yet checked (missing Go files or import cycle?)", path)
	}
	return m.fallback.Import(path)
}

// Run executes the given analyzers over every package of the module
// (per-package analyzers), then over the module as a whole (module
// analyzers), and returns the sorted findings.
func (m *Module) Run(analyzers []*Analyzer) []Finding {
	var findings []Finding
	dirs := m.directives()
	for _, pkg := range m.Packages {
		pass := NewPass(m.Fset, pkg.Files, pkg.Types, pkg.Info, m.Root, dirs, &findings)
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(pass)
			}
		}
	}
	mp := &ModulePass{Module: m, dirs: dirs, findings: &findings}
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(mp)
		}
	}
	SortFindings(findings)
	return findings
}
