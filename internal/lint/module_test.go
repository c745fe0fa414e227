package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// repo is the repository's own module, loaded once for every test
// that inspects it.
var repo struct {
	once sync.Once
	mod  *Module
	err  error
}

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repo.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repo.err = err
			return
		}
		repo.mod, repo.err = LoadModule(root)
	})
	if repo.err != nil {
		t.Fatalf("LoadModule(repo): %v", repo.err)
	}
	return repo.mod
}

// TestRepositoryIsClean is the enforcement test: the repository at HEAD
// must produce zero findings. If this fails, fix the violation (or, for
// a deliberate exception, add a reasoned //mrlint:ignore directive) —
// do not weaken the analyzers. Each failure prints its witness path.
func TestRepositoryIsClean(t *testing.T) {
	mod := loadRepo(t)
	if mod.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", mod.Path)
	}
	for _, f := range mod.Run(All()) {
		t.Errorf("%s", f.Explain())
	}
}

// TestSuppressionCeilings caps the reasoned ignores of the rules whose
// suppressions keep otherwise dead code alive. Lower a ceiling when a
// suppression goes; never raise it.
func TestSuppressionCeilings(t *testing.T) {
	ceiling := map[string]int{"test-only-export": 3, "dead-field": 0}
	count := make(map[string]int)
	for _, d := range loadRepo(t).Suppressions() {
		for _, rule := range d.Rules {
			count[rule]++
		}
	}
	for rule, max := range ceiling {
		if count[rule] > max {
			t.Errorf("%d %s suppressions, above the ceiling of %d", count[rule], rule, max)
		}
	}
}

// TestFixtureTripsEveryRule loads the purpose-built bad module and
// asserts every analyzer reports at least one finding there.
func TestFixtureTripsEveryRule(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatalf("LoadModule(badmod): %v", err)
	}
	findings := mod.Run(All())
	for _, a := range All() {
		if countRule(findings, a.Name) == 0 {
			t.Errorf("fixture produced no %s finding; findings: %v", a.Name, findings)
		}
	}
}

// TestLoaderSkipsNestedModules ensures testdata fixtures and nested
// modules don't leak into an enclosing module's analysis.
func TestLoaderSkipsNestedModules(t *testing.T) {
	for _, pkg := range loadRepo(t).Packages {
		if pkg.ImportPath == "repro/internal/lint/testdata/badmod/internal/bad" {
			t.Fatal("loader descended into a nested module under testdata")
		}
	}
}
