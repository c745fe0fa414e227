package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestTestOnlyExportFixture loads testdata/testonly, whose internal/a
// marks each declaration the rule must report with a trailing
// "want test-only-export" comment, and checks that exactly those lines
// are reported: test-only uses (in-package and external test files)
// and self-recursion do not count as uses, while uses from another
// package, from cmd/, through an interface (b.Shape) or through fmt
// (String) do, and an ignore directive suppresses its finding.
func TestTestOnlyExportFixture(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(testonly): %v", err)
	}
	var got []string
	for _, f := range mod.Run([]*Analyzer{TestOnlyExportAnalyzer}) {
		got = append(got, fmt.Sprintf("%s:%d", f.File, f.Line))
	}
	want := wantLines(t, root, "internal/a/a.go", "test-only-export")
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings at %v, want %v", got, want)
	}
	if len(mod.Suppressions()) != 1 {
		t.Fatalf("fixture has %d directives, want the one on a.Kept", len(mod.Suppressions()))
	}
}

// wantLines returns "file:line" for every line of the module-relative
// file that carries a "want <rule>" comment, sorted.
func wantLines(t *testing.T, root, file, rule string) []string {
	t.Helper()
	fh, err := os.Open(filepath.Join(root, filepath.FromSlash(file)))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var out []string
	sc := bufio.NewScanner(fh)
	for line := 1; sc.Scan(); line++ {
		if strings.Contains(sc.Text(), "// want "+rule) {
			out = append(out, fmt.Sprintf("%s:%d", file, line))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}
