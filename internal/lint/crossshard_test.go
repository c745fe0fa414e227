package lint

import "testing"

// miniShardSim gives the cross-shard-event analyzer the sharded engine
// surface: an Engine plus Shards carrying the scheduling API.
const miniShardSim = `package sim

type Engine struct{ n int }

func (e *Engine) After(d float64, fn func()) { e.n++ }
func (e *Engine) At(t float64, fn func())    { e.n++ }

type Shard struct{ n int }

func (s *Shard) After(d float64, fn func())            { s.n++ }
func (s *Shard) At(t float64, fn func())               { s.n++ }
func (s *Shard) Tick(fn func())                        { s.n++ }
func (s *Shard) Cancel(ev any)                         { s.n++ }
func (s *Shard) Send(dst *Shard, d float64, fn func()) { s.n++ }
`

func TestCrossShardEventTableDriven(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "direct hop to another shard flagged",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() { b.At(5, func() {}) })
}
`,
			want: 1,
		},
		{
			name: "engine fallback inside shard closure flagged",
			src: `package cluster
import "fixture/internal/sim"
func f(eng *sim.Engine, a *sim.Shard) {
	a.After(1, func() { eng.After(2, func() {}) })
}
`,
			want: 1,
		},
		{
			name: "foreign Send receiver flagged",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() { b.Send(a, 2, func() {}) })
}
`,
			want: 1,
		},
		{
			name: "foreign cancel in ticker flagged",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.Tick(func() { b.Cancel(nil) })
}
`,
			want: 1,
		},
		{
			name: "field-path mismatch flagged",
			src: `package cluster
import "fixture/internal/sim"
type job struct{ shard, other *sim.Shard }
func (j *job) f() {
	j.shard.After(1, func() { j.other.After(2, func() {}) })
}
`,
			want: 1,
		},
		{
			name: "same shard clean",
			src: `package cluster
import "fixture/internal/sim"
func f(a *sim.Shard) {
	a.After(1, func() {
		a.At(5, func() {})
		a.Cancel(nil)
	})
}
`,
			want: 0,
		},
		{
			name: "own Send hop clean",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() { a.Send(b, 2, func() {}) })
}
`,
			want: 0,
		},
		{
			name: "send closure owned by destination clean",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.Send(b, 2, func() { b.After(3, func() {}) })
}
`,
			want: 0,
		},
		{
			name: "send closure scheduling on source flagged",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.Send(b, 2, func() { a.After(3, func() {}) })
}
`,
			want: 1,
		},
		{
			name: "nested closure re-anchors affinity",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() {
		a.Send(b, 2, func() { b.After(3, func() {}) })
	})
}
`,
			want: 0,
		},
		{
			name: "unresolvable receiver skipped",
			src: `package cluster
import "fixture/internal/sim"
func pick(ss []*sim.Shard, i int) *sim.Shard { return ss[i] }
func f(a *sim.Shard, ss []*sim.Shard) {
	a.After(1, func() { pick(ss, 0).At(5, func() {}) })
	a.After(1, func() { ss[0].At(5, func() {}) })
}
`,
			want: 0,
		},
		{
			name: "non-simulated package not scanned",
			src: `package experiments
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() { b.At(5, func() {}) })
}
`,
			want: 0,
		},
		{
			name: "suppressed by directive",
			src: `package cluster
import "fixture/internal/sim"
func f(a, b *sim.Shard) {
	a.After(1, func() {
		//mrlint:ignore cross-shard-event audited window-coordinator internals
		b.At(5, func() {})
	})
}
`,
			want: 0,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := "internal/cluster/f.go"
			if tc.name == "non-simulated package not scanned" {
				dir = "internal/experiments/f.go"
			}
			findings := lintFiles(t, "cross-shard-event", map[string]string{
				"go.mod":              "module fixture\n\ngo 1.22\n",
				"internal/sim/sim.go": miniShardSim,
				dir:                   tc.src,
			})
			if got := countRule(findings, "cross-shard-event"); got != tc.want {
				t.Fatalf("got %d cross-shard-event findings, want %d: %v", got, tc.want, findings)
			}
		})
	}
}
