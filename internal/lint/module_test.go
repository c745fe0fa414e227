package lint

import (
	"path/filepath"
	"testing"
)

// TestRepositoryIsClean is the enforcement test: the repository at HEAD
// must produce zero findings. If this fails, fix the violation (or, for
// a deliberate exception, add a reasoned //mrlint:ignore directive) —
// do not weaken the analyzers.
func TestRepositoryIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(repo): %v", err)
	}
	if mod.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", mod.Path)
	}
	findings := mod.Run(All())
	for _, f := range findings {
		t.Errorf("%s", f)
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
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range mod.Packages {
		if pkg.ImportPath == "repro/internal/lint/testdata/badmod/internal/bad" {
			t.Fatal("loader descended into a nested module under testdata")
		}
	}
}
