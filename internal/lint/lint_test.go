package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixtureModule materializes the given files as a temporary
// module (adding a default go.mod when absent) and returns its root.
func writeFixtureModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module fixture\n\ngo 1.22\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lintFiles writes the given files into a temporary module, loads it
// with the production loader, and runs the selected rules (all when
// rules is empty).
func lintFiles(t *testing.T, rules string, files map[string]string) []Finding {
	t.Helper()
	mod, err := LoadModule(writeFixtureModule(t, files))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	analyzers, err := Select(rules)
	if err != nil {
		t.Fatalf("Select(%q): %v", rules, err)
	}
	return mod.Run(analyzers)
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

// miniSim gives the ordered-map-iter analyzer an Engine with scheduler
// methods.
const miniSim = `package sim

type Engine struct{ n int }

func (e *Engine) After(d float64, fn func()) { e.n++ }
func (e *Engine) At(t float64, fn func())    { e.n++ }
`

func TestAnalyzersTableDriven(t *testing.T) {
	cases := []struct {
		name  string
		rule  string
		file  string // path inside the fixture module
		src   string
		extra map[string]string // additional support files
		want  int               // findings expected for rule
	}{
		// ---- no-wallclock ----
		{
			name: "wallclock positive time.Now",
			rule: "no-wallclock",
			file: "internal/x/x.go",
			src: `package x
import "time"
func Now() int64 { return time.Now().UnixNano() }
`,
			want: 1,
		},
		{
			name: "wallclock positive Sleep and Since",
			rule: "no-wallclock",
			file: "cmd/tool/main.go",
			src: `package main
import "time"
func main() {
	t := time.Now()
	time.Sleep(time.Second)
	_ = time.Since(t)
}
`,
			want: 3,
		},
		{
			name: "wallclock negative duration arithmetic ok",
			rule: "no-wallclock",
			file: "internal/x/x.go",
			src: `package x
import "time"
func D() time.Duration { return 3 * time.Second }
`,
			want: 0,
		},
		{
			name: "wallclock negative outside internal and cmd",
			rule: "no-wallclock",
			file: "examples/demo/main.go",
			src: `package main
import "time"
func main() { _ = time.Now() }
`,
			want: 0,
		},
		{
			name: "wallclock negative test file",
			rule: "no-wallclock",
			file: "internal/x/x_test.go",
			src: `package x
import (
	"testing"
	"time"
)
func TestReal(t *testing.T) { _ = time.Now() }
`,
			extra: map[string]string{"internal/x/x.go": "package x\n"},
			want:  0,
		},
		{
			name: "wallclock ignore directive same line",
			rule: "no-wallclock",
			file: "internal/x/x.go",
			src: `package x
import "time"
func Now() int64 { return time.Now().UnixNano() } //mrlint:ignore no-wallclock process startup stamp
`,
			want: 0,
		},
		{
			name: "wallclock ignore directive line above",
			rule: "no-wallclock",
			file: "internal/x/x.go",
			src: `package x
import "time"
func Now() int64 {
	//mrlint:ignore no-wallclock process startup stamp
	return time.Now().UnixNano()
}
`,
			want: 0,
		},
		{
			name: "wallclock directive for other rule does not suppress",
			rule: "no-wallclock",
			file: "internal/x/x.go",
			src: `package x
import "time"
func Now() int64 { return time.Now().UnixNano() } //mrlint:ignore no-global-rand wrong rule
`,
			want: 1,
		},

		// ---- no-global-rand ----
		{
			name: "globalrand positive Float64",
			rule: "no-global-rand",
			file: "internal/x/x.go",
			src: `package x
import "math/rand"
func F() float64 { return rand.Float64() }
`,
			want: 1,
		},
		{
			name: "globalrand positive in test file too",
			rule: "no-global-rand",
			file: "internal/x/x_test.go",
			src: `package x
import (
	"math/rand"
	"testing"
)
func TestF(t *testing.T) { _ = rand.Intn(5) }
`,
			extra: map[string]string{"internal/x/x.go": "package x\n"},
			want:  1,
		},
		{
			name: "globalrand negative seeded instance",
			rule: "no-global-rand",
			file: "internal/x/x.go",
			src: `package x
import "math/rand"
func F(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}
`,
			want: 0,
		},
		{
			name: "globalrand negative exempt rng.go",
			rule: "no-global-rand",
			file: "internal/sim/rng.go",
			src: `package sim
import "math/rand"
func F() float64 { return rand.Float64() }
`,
			want: 0,
		},
		{
			name: "globalrand ignore directive",
			rule: "no-global-rand",
			file: "internal/x/x.go",
			src: `package x
import "math/rand"
func F() float64 { return rand.Float64() } //mrlint:ignore no-global-rand demo only
`,
			want: 0,
		},

		// ---- ordered-map-iter ----
		{
			name: "mapiter positive append unsorted",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
			want: 1,
		},
		{
			name: "mapiter positive output",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "fmt"
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
			want: 1,
		},
		{
			name: "mapiter positive builder write",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "strings"
func Dump(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`,
			want: 1,
		},
		{
			name: "mapiter positive sim scheduling",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
func Schedule(e *sim.Engine, m map[string]float64) {
	for _, d := range m {
		e.After(d, func() {})
	}
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  1,
		},
		{
			name: "mapiter negative collect then sort",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "sort"
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`,
			want: 0,
		},
		{
			name: "mapiter negative sort.Slice",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "sort"
func Vals(m map[string]float64) []float64 {
	var vs []float64
	for _, v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}
`,
			want: 0,
		},
		{
			name: "mapiter negative order-insensitive aggregation",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
func Sum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`,
			want: 0,
		},
		{
			name: "mapiter negative map-to-map copy",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
func Copy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
`,
			want: 0,
		},
		{
			name: "mapiter negative range over slice",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
import "fmt"
func Dump(s []string) {
	for _, v := range s {
		fmt.Println(v)
	}
}
`,
			want: 0,
		},
		{
			name: "mapiter ignore directive",
			rule: "ordered-map-iter",
			file: "internal/x/x.go",
			src: `package x
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //mrlint:ignore ordered-map-iter order irrelevant, set semantics
	}
	return keys
}
`,
			want: 0,
		},

		// ---- retained-append ----
		{
			name: "retainedappend positive grow-only field",
			rule: "retained-append",
			file: "internal/yarn/x.go",
			src: `package yarn
type Log struct{ entries []string }
func (l *Log) Add(m string) { l.entries = append(l.entries, m) }
`,
			want: 1,
		},
		{
			name: "retainedappend negative truncation reset",
			rule: "retained-append",
			file: "internal/yarn/x.go",
			src: `package yarn
type Buf struct{ items []int }
func (b *Buf) Push(v int) { b.items = append(b.items, v) }
func (b *Buf) Reset()     { b.items = b.items[:0] }
`,
			want: 0,
		},
		{
			name: "retainedappend negative append onto truncation",
			rule: "retained-append",
			file: "internal/cluster/x.go",
			src: `package cluster
type Wave struct{ flows []int }
func (w *Wave) Start(f, g int) { w.flows = append(w.flows[:0], f, g) }
func (w *Wave) More(f int)     { w.flows = append(w.flows, f) }
`,
			want: 0,
		},
		{
			name: "retainedappend negative whole-struct recycle",
			rule: "retained-append",
			file: "internal/mapreduce/x.go",
			src: `package mapreduce
type Task struct{ flows []int }
func (t *Task) Track(f int) { t.flows = append(t.flows, f) }
func Recycle(t *Task)       { *t = Task{flows: t.flows[:0]} }
`,
			want: 0,
		},
		{
			name: "retainedappend negative cold package",
			rule: "retained-append",
			file: "internal/report/x.go",
			src: `package report
type Doc struct{ lines []string }
func (d *Doc) Add(m string) { d.lines = append(d.lines, m) }
`,
			want: 0,
		},
		{
			name: "retainedappend negative local slice append",
			rule: "retained-append",
			file: "internal/yarn/x.go",
			src: `package yarn
func Collect(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
`,
			want: 0,
		},
		{
			name: "retainedappend ignore directive",
			rule: "retained-append",
			file: "internal/yarn/x.go",
			src: `package yarn
type Log struct{ entries []string }
func (l *Log) Add(m string) {
	l.entries = append(l.entries, m) //mrlint:ignore retained-append opt-in retained log for tests
}
`,
			want: 0,
		},

		// ---- dead-field ----
		{
			name: "deadfield positive write-only fields",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type T struct {
	n, m  int
	sum   float64
	label string
}
func New() *T { return &T{n: 1, label: "t"} }
func (t *T) Add(v float64) {
	t.n++
	t.m = 2
	t.sum += v
	_ = T{1, 2, 3, "u"}
}
`,
			want: 4,
		},
		{
			name: "deadfield positive read only by a test",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type T struct{ n int }
func (t *T) Inc() { t.n++ }
`,
			extra: map[string]string{"internal/x/x_test.go": `package x
import "testing"
func TestInc(t *testing.T) {
	var v T
	v.Inc()
	if v.n != 1 {
		t.Fatal(v.n)
	}
}
`},
			want: 1,
		},
		{
			name: "deadfield negative map-key struct",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type key struct{ seed, bench int }
func Count(seeds []int) map[key]int {
	m := make(map[key]int)
	for _, s := range seeds {
		m[key{seed: s, bench: 1}]++
	}
	return m
}
`,
			want: 0,
		},
		{
			name: "deadfield negative struct compared with ==",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type pos struct{ line, col int }
func Same(a, b int) bool { return pos{a, b} == pos{b, a} }
`,
			want: 0,
		},
		{
			name: "deadfield negative exported and read fields",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type T struct {
	N    int
	seen bool
}
func (t *T) Mark() bool {
	t.N = 1
	was := t.seen
	t.seen = true
	return was
}
`,
			want: 0,
		},
		{
			name: "deadfield ignore directive",
			rule: "dead-field",
			file: "internal/x/x.go",
			src: `package x
type T struct {
	n int //mrlint:ignore dead-field read by TestInc
}
func (t *T) Inc() { t.n++ }
`,
			want: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{tc.file: tc.src}
			for name, src := range tc.extra {
				files[name] = src
			}
			findings := lintFiles(t, tc.rule, files)
			if got := countRule(findings, tc.rule); got != tc.want {
				t.Errorf("got %d findings for %s, want %d\nall findings: %v",
					got, tc.rule, tc.want, findings)
			}
		})
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("no-wallclock, dead-field")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select two = %d, err %v", len(two), err)
	}
	if _, err := Select("no-such-rule"); err == nil {
		t.Fatal("Select of unknown rule did not error")
	}
}

func TestFindingStringFormat(t *testing.T) {
	f := Finding{File: "internal/x/x.go", Line: 3, Col: 7, Rule: "no-wallclock", Message: "msg"}
	want := "internal/x/x.go:3:7: [no-wallclock] msg"
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}

func TestMalformedDirectiveDoesNotSuppress(t *testing.T) {
	// A bare //mrlint:ignore with no rule must not become a blanket
	// suppression.
	findings := lintFiles(t, "no-wallclock", map[string]string{
		"internal/x/x.go": `package x
import "time"
func Now() int64 { return time.Now().UnixNano() } //mrlint:ignore
`,
	})
	if countRule(findings, "no-wallclock") != 1 {
		t.Fatalf("malformed directive suppressed the finding: %v", findings)
	}
}

func TestSortFindingsStable(t *testing.T) {
	fs := []Finding{
		{File: "b.go", Line: 1, Rule: "r"},
		{File: "a.go", Line: 9, Rule: "r"},
		{File: "a.go", Line: 2, Rule: "r"},
	}
	SortFindings(fs)
	if fs[0].File != "a.go" || fs[0].Line != 2 || fs[2].File != "b.go" {
		t.Fatalf("unexpected order: %v", fs)
	}
}

func TestExternalTestPackagesAreLinted(t *testing.T) {
	findings := lintFiles(t, "no-global-rand", map[string]string{
		"internal/x/x.go": "package x\nfunc X() int { return 1 }\n",
		"internal/x/ext_test.go": `package x_test
import (
	"math/rand"
	"testing"

	"fixture/internal/x"
)
func TestX(t *testing.T) {
	if x.X() != 1 {
		t.Fatal(rand.Intn(2))
	}
}
`,
	})
	if countRule(findings, "no-global-rand") != 1 {
		t.Fatalf("external test package not linted: %v", findings)
	}
}

func TestModuleRootRelativePaths(t *testing.T) {
	findings := lintFiles(t, "no-wallclock", map[string]string{
		"internal/x/x.go": `package x
import "time"
func Now() time.Time { return time.Now() }
`,
	})
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %v", findings)
	}
	if f := findings[0]; f.File != "internal/x/x.go" || strings.Contains(f.File, "..") {
		t.Fatalf("finding path not module-relative: %q", f.File)
	}
}
