package lint

import "testing"

// BenchmarkLintModule measures the full whole-module lint: load,
// typecheck, per-package rules, and the interprocedural taint fixpoint,
// the same work TestRepositoryIsClean does inside go test.
func BenchmarkLintModule(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		if findings := mod.Run(All()); len(findings) != 0 {
			b.Fatalf("repository not clean: %v", findings)
		}
	}
}
