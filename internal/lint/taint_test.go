package lint

import (
	"strings"
	"testing"
)

// orderPkg is a helper package whose Keys function leaks map-iteration
// order to its callers; the intraprocedural finding is suppressed so
// the tests exercise the interprocedural path alone.
const orderPkg = `package order

func Keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) //mrlint:ignore ordered-map-iter test fixture source
	}
	return ks
}

func SortedKeys(m map[string]int) []string {
	return nil
}

func Vals(m map[string]float64) []float64 {
	var vs []float64
	for _, v := range m {
		vs = append(vs, v) //mrlint:ignore ordered-map-iter test fixture source
	}
	return vs
}
`

func TestNewAnalyzersTableDriven(t *testing.T) {
	cases := []struct {
		name  string
		rule  string
		file  string
		src   string
		extra map[string]string
		want  int
	}{
		// ---- nondet-flow ----
		{
			name: "nondetflow positive cross-package print",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fmt"

	"fixture/internal/order"
)
func Dump(m map[string]int) {
	for _, k := range order.Keys(m) {
		fmt.Println(k)
	}
}
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  1,
		},
		{
			name: "nondetflow positive tainted argument reaches sink in callee",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fmt"

	"fixture/internal/order"
)
func emit(ks []string) { fmt.Println(ks) }
func Dump(m map[string]int) { emit(order.Keys(m)) }
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  1,
		},
		{
			name: "nondetflow positive scheduling sink",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fixture/internal/order"
	"fixture/internal/sim"
)
func Schedule(e *sim.Engine, m map[string]float64) {
	for _, d := range order.Vals(m) {
		e.After(d, func() {})
	}
}
`,
			extra: map[string]string{
				"internal/order/order.go": orderPkg,
				"internal/sim/engine.go":  miniSim,
			},
			want: 1,
		},
		{
			name: "nondetflow negative sorted before sink",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fmt"
	"sort"

	"fixture/internal/order"
)
func Dump(m map[string]int) {
	ks := order.Keys(m)
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Println(k)
	}
}
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  0,
		},
		{
			name: "nondetflow negative map insertion kills order",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/order"
func Set(m map[string]int) map[string]bool {
	out := make(map[string]bool)
	for _, k := range order.Keys(m) {
		out[k] = true
	}
	return out
}
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  0,
		},
		{
			name: "nondetflow negative intraprocedural is ordered-map-iter's job",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import "fmt"
func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`,
			want: 0,
		},
		{
			name: "nondetflow negative untainted helper",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fmt"

	"fixture/internal/order"
)
func Dump(m map[string]int) {
	for _, k := range order.SortedKeys(m) {
		fmt.Println(k)
	}
}
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  0,
		},
		{
			name: "nondetflow ignore directive at sink",
			rule: "nondet-flow",
			file: "internal/x/x.go",
			src: `package x
import (
	"fmt"

	"fixture/internal/order"
)
func Dump(m map[string]int) {
	for _, k := range order.Keys(m) {
		fmt.Println(k) //mrlint:ignore nondet-flow diagnostic dump, order irrelevant
	}
}
`,
			extra: map[string]string{"internal/order/order.go": orderPkg},
			want:  0,
		},

		// ---- float-map-accum ----
		{
			name: "floataccum positive compound add",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
`,
			want: 1,
		},
		{
			name: "floataccum positive x equals x plus v",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Prod(m map[string]float64) float64 {
	p := 1.0
	for _, v := range m {
		p = p * v
	}
	return p
}
`,
			want: 1,
		},
		{
			name: "floataccum positive derived from key",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Weighted(m map[int]float64) float64 {
	t := 0.0
	for k, v := range m {
		t += float64(k) * v
	}
	return t
}
`,
			want: 1,
		},
		{
			name: "floataccum negative integer accumulation is exact",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`,
			want: 0,
		},
		{
			name: "floataccum negative loop-invariant contribution",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Penalty(m map[string]int, w float64) float64 {
	t := 0.0
	for range m {
		t += w
	}
	return t
}
`,
			want: 0,
		},
		{
			name: "floataccum negative range over slice",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
`,
			want: 0,
		},
		{
			name: "floataccum ignore directive",
			rule: "float-map-accum",
			file: "internal/x/x.go",
			src: `package x
func Sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v //mrlint:ignore float-map-accum tolerance test, bits don't matter
	}
	return t
}
`,
			want: 0,
		},

		// ---- no-goroutine-in-sim ----
		{
			name: "goroutine positive go statement in sim package",
			rule: "no-goroutine-in-sim",
			file: "internal/sim/x.go",
			src: `package sim
func F(fn func()) {
	go fn()
}
`,
			want: 1,
		},
		{
			name: "goroutine positive sync in mapreduce package",
			rule: "no-goroutine-in-sim",
			file: "internal/mapreduce/x.go",
			src: `package mapreduce
import "sync"
func F() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}
`,
			want: 1, // the sync.Mutex type use; mu.Lock/Unlock are not pkg selectors
		},
		{
			name: "goroutine positive channel ops in yarn package",
			rule: "no-goroutine-in-sim",
			file: "internal/yarn/x.go",
			src: `package yarn
func F(c chan int) int {
	c <- 1
	return <-c
}
`,
			want: 3, // chan type in signature, send, receive
		},
		{
			name: "goroutine negative experiments fan-out exempt",
			rule: "no-goroutine-in-sim",
			file: "internal/experiments/x.go",
			src: `package experiments
func F(fn func()) {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	<-done
}
`,
			want: 0,
		},
		{
			name: "goroutine negative test file exempt",
			rule: "no-goroutine-in-sim",
			file: "internal/sim/x_test.go",
			src: `package sim
import "testing"
func TestF(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
`,
			extra: map[string]string{"internal/sim/x.go": "package sim\n"},
			want:  0,
		},
		{
			name: "goroutine ignore directive",
			rule: "no-goroutine-in-sim",
			file: "internal/sim/x.go",
			src: `package sim
func F(fn func()) {
	go fn() //mrlint:ignore no-goroutine-in-sim measured, bounded startup helper
}
`,
			want: 0,
		},

		// ---- event-closure-capture ----
		{
			name: "eventcapture positive mutated after scheduling",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out int
func F(e *sim.Engine) {
	n := 1
	e.At(5, func() { out = n })
	n = 2
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  1,
		},
		{
			name: "eventcapture positive mutated across loop iterations",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out float64
func F(e *sim.Engine, ds []float64) {
	total := 0.0
	for _, d := range ds {
		total += d
		e.After(d, func() { out = total })
	}
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  1,
		},
		{
			name: "eventcapture positive parameter rebound after scheduling",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out float64
func F(e *sim.Engine, window float64) {
	e.At(5, func() { out = window })
	window = 0
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  1,
		},
		{
			name: "eventcapture positive receiver rebound after scheduling",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
type T struct{ n int }
var out int
func (t *T) F(e *sim.Engine) {
	e.At(5, func() { out = t.n })
	t = &T{}
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  1,
		},
		{
			name: "eventcapture negative parameter not rebound",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out float64
func F(e *sim.Engine, window float64) {
	e.At(5, func() { out = window })
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0,
		},
		{
			name: "eventcapture negative per-iteration copy",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out float64
func F(e *sim.Engine, ds []float64) {
	total := 0.0
	for _, d := range ds {
		total += d
		snapshot := total
		e.After(d, func() { out = snapshot })
	}
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0,
		},
		{
			name: "eventcapture negative field writes through captured var",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
type rig struct{ n int }
var out int
func F(e *sim.Engine) {
	r := &rig{}
	e.At(3, func() { out = r.n })
	r.n = 7
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0,
		},
		{
			name: "eventcapture negative mutation only inside closures",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out int
func F(e *sim.Engine) {
	n := 1
	e.At(5, func() { n = 2 })
	e.At(6, func() { out = n })
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0,
		},
		{
			name: "eventcapture negative loop var not mutated after",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out float64
func F(e *sim.Engine, ds []float64) {
	for _, d := range ds {
		e.After(d, func() { out = d })
	}
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0, // go1.22 per-iteration semantics: d is not rebound under the closure
		},
		{
			name: "eventcapture ignore directive",
			rule: "event-closure-capture",
			file: "internal/x/x.go",
			src: `package x
import "fixture/internal/sim"
var out int
func F(e *sim.Engine) {
	n := 1
	e.At(5, func() { out = n }) //mrlint:ignore event-closure-capture event wants the final value
	n = 2
}
`,
			extra: map[string]string{"internal/sim/engine.go": miniSim},
			want:  0,
		},

		// ---- malformed-directive ----
		{
			name: "malformed positive no rule",
			rule: "malformed-directive",
			file: "internal/x/x.go",
			src: `package x
//mrlint:ignore
func F() {}
`,
			want: 1,
		},
		{
			name: "malformed positive unknown rule",
			rule: "malformed-directive",
			file: "internal/x/x.go",
			src: `package x
//mrlint:ignore no-such-rule some reason
func F() {}
`,
			want: 1,
		},
		{
			name: "malformed positive missing reason",
			rule: "malformed-directive",
			file: "internal/x/x.go",
			src: `package x
//mrlint:ignore no-wallclock
func F() {}
`,
			want: 1,
		},
		{
			name: "malformed negative well-formed directive",
			rule: "malformed-directive",
			file: "internal/x/x.go",
			src: `package x
//mrlint:ignore no-wallclock startup stamp only
func F() {}
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

// TestNondetFlowExplainPath asserts the witness path is complete and
// ordered: it starts at the map range in the helper package, ends at
// the sink, and spans at least two functions.
func TestNondetFlowExplainPath(t *testing.T) {
	findings := lintFiles(t, "nondet-flow", map[string]string{
		"internal/order/order.go": orderPkg,
		"internal/x/x.go": `package x
import (
	"fmt"

	"fixture/internal/order"
)
func Dump(m map[string]int) {
	for _, k := range order.Keys(m) {
		fmt.Println(k)
	}
}
`,
	})
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %v", findings)
	}
	f := findings[0]
	if len(f.Path) < 3 {
		t.Fatalf("witness path too short: %v", f.Path)
	}
	first, last := f.Path[0], f.Path[len(f.Path)-1]
	if first.File != "internal/order/order.go" || !strings.Contains(first.What, "range over map") {
		t.Errorf("path does not start at the map-range source: %+v", first)
	}
	if last.File != "internal/x/x.go" || !strings.Contains(last.What, "fmt.Println") {
		t.Errorf("path does not end at the sink: %+v", last)
	}
	funcs := map[string]bool{}
	for _, s := range f.Path {
		funcs[s.Func] = true
	}
	if len(funcs) < 2 {
		t.Errorf("witness path does not span two functions: %v", f.Path)
	}
	explain := f.Explain()
	if !strings.Contains(explain, "1. internal/order/order.go") ||
		!strings.Contains(explain, "in order.Keys") ||
		!strings.Contains(explain, "in x.Dump") {
		t.Errorf("Explain() missing hops:\n%s", explain)
	}
	if !strings.HasPrefix(explain, f.String()) {
		t.Errorf("Explain() does not lead with the finding line:\n%s", explain)
	}
}

// TestTaintSummariesAcrossThreeFunctions checks propagation through an
// intermediate function that neither sources nor sinks.
func TestTaintSummariesAcrossThreeFunctions(t *testing.T) {
	findings := lintFiles(t, "nondet-flow", map[string]string{
		"internal/order/order.go": orderPkg,
		"internal/x/x.go": `package x
import (
	"fmt"

	"fixture/internal/order"
)
func relay(m map[string]int) []string { return order.Keys(m) }
func Dump(m map[string]int) { fmt.Println(relay(m)) }
`,
	})
	if countRule(findings, "nondet-flow") != 1 {
		t.Fatalf("taint did not propagate through relay: %v", findings)
	}
	funcs := map[string]bool{}
	for _, s := range findings[0].Path {
		funcs[s.Func] = true
	}
	for _, want := range []string{"order.Keys", "x.relay", "x.Dump"} {
		if !funcs[want] {
			t.Errorf("witness path missing hop in %s: %v", want, findings[0].Path)
		}
	}
}

func TestSuppressionsList(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"internal/x/x.go": `package x
import "time"
func Now() int64 { return time.Now().UnixNano() } //mrlint:ignore no-wallclock startup stamp
//mrlint:ignore
func F() {}
`,
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs := mod.Suppressions()
	if len(dirs) != 2 {
		t.Fatalf("want 2 directives, got %v", dirs)
	}
	well, bad := dirs[0], dirs[1]
	if well.File != "internal/x/x.go" || well.Line != 3 ||
		len(well.Rules) != 1 || well.Rules[0] != "no-wallclock" ||
		well.Reason != "startup stamp" || well.Problem != "" {
		t.Errorf("well-formed directive parsed wrong: %+v", well)
	}
	if bad.Line != 4 || bad.Problem == "" {
		t.Errorf("malformed directive not recorded: %+v", bad)
	}
}
