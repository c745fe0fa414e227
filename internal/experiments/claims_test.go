package experiments

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// seed42 is every claim section run once for DefaultEnv, shared by the
// tests that read claims at seed 42.
var seed42 = sync.OnceValue(func() *Results { return DefaultEnv().claimSections() })

// TestClaims checks every claim that has a band at seed 42: the paper's
// shape claims and the extension checks, read from one table.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := seed42()
	ids := make(map[string]bool)
	for _, c := range Claims() {
		if ids[c.ID] {
			t.Errorf("claim %s is listed twice", c.ID)
		}
		ids[c.ID] = true
		if c.Band == nil {
			continue
		}
		if v := c.Value(r); !c.Band.Contains(v) {
			t.Errorf("%s = %s, outside its band %s (paper: %s)", c.ID, c.Format(v), c.BandText(), c.Paper)
		}
	}
}

// checkClaimSections checks, at seed 42, every banded claim whose ID
// starts with one of sections followed by "/", the same rows TestClaims
// checks, and fails when none has a band.
func checkClaimSections(t *testing.T, sections ...string) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	r := seed42()
	checked := 0
	for _, c := range Claims() {
		if c.Band == nil || !slices.Contains(sections, strings.SplitN(c.ID, "/", 2)[0]) {
			continue
		}
		checked++
		if v := c.Value(r); !c.Band.Contains(v) {
			t.Errorf("%s = %s, outside its band %s (paper: %s)", c.ID, c.Format(v), c.BandText(), c.Paper)
		}
	}
	if checked == 0 {
		t.Fatalf("no banded claim in sections %v", sections)
	}
	return r
}

// The shape tests below each check one figure's or study's rows of
// Claims, with the row counts the claims index by.

func TestTable3Regenerated(t *testing.T) {
	if r := checkClaimSections(t, "table3"); len(r.Table3) != len(workload.Suite()) {
		t.Errorf("Table 3 rows = %d, want %d", len(r.Table3), len(workload.Suite()))
	}
}

func TestFig4TerasortShape(t *testing.T) {
	if r := checkClaimSections(t, "fig4"); len(r.Fig4) != 1 {
		t.Errorf("Fig4 rows = %d, want 1", len(r.Fig4))
	}
}

func TestFig7SpillShape(t *testing.T) { checkClaimSections(t, "fig7") }

func TestFig5WikipediaShape(t *testing.T) {
	if r := checkClaimSections(t, "fig5", "fig8"); len(r.Fig5) != 4 {
		t.Errorf("Fig5 rows = %d, want 4", len(r.Fig5))
	}
}

func TestFig6FreebaseShape(t *testing.T) {
	if r := checkClaimSections(t, "fig6"); len(r.Fig6) != 4 {
		t.Errorf("Fig6 rows = %d, want 4", len(r.Fig6))
	}
}

func TestFig10to12SingleRunShape(t *testing.T) {
	r := checkClaimSections(t, "fig10", "fig11", "fig12", "fig10-12")
	if n := len(r.Fig10) + len(r.Fig11) + len(r.Fig12); n != 9 {
		t.Errorf("single-run rows = %d, want 9", n)
	}
}

func TestFig13JobSizeShape(t *testing.T) {
	if r := checkClaimSections(t, "fig13"); len(r.Fig13) != 6 {
		t.Errorf("Fig13 rows = %d, want 6", len(r.Fig13))
	}
}

func TestFig14to16MultiTenantShape(t *testing.T) { checkClaimSections(t, "fig14", "fig15", "fig16") }

func TestTestRunCounts(t *testing.T) {
	if r := checkClaimSections(t, "s7"); len(r.TestRuns) != 2 {
		t.Errorf("test-run rows = %d, want 2", len(r.TestRuns))
	}
}

func TestHotSpotAvoidanceShape(t *testing.T) { checkClaimSections(t, "hotspot") }

func TestStragglerMitigationShape(t *testing.T) { checkClaimSections(t, "straggler") }

func TestAmortizationCrossover(t *testing.T) {
	if r := checkClaimSections(t, "amortization"); len(r.Amortization) != 8 {
		t.Errorf("amortization rows = %d, want 8", len(r.Amortization))
	}
}

// TestFailedLegClaims: the claims marked as failed legs name exactly the
// plain (not "crash/") entries of the failedLegs ratchet, so the two
// lists cannot drift apart.
func TestFailedLegClaims(t *testing.T) {
	var got, want []string
	for _, c := range Claims() {
		if c.Status == failedLeg {
			seg := strings.Split(c.ID, "/")
			got = append(got, seg[0]+" "+strings.Replace(seg[1], "-", "/", 1))
		}
	}
	for _, leg := range failedLegs {
		if !strings.HasPrefix(leg, "crash/") {
			want = append(want, leg)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("failed-leg claims:\n\t%s\nwant (failedLegs):\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

func TestBandContains(t *testing.T) {
	for _, tc := range []struct {
		band *Band
		v    float64
		want bool
	}{
		{between(0.10, 0.45), 0.10, true},
		{between(0.10, 0.45), 0.46, false},
		{atLeast(6), 6, true},
		{above(1), 1, false},
		{below(1), 0.99, true},
		{below(1), 1, false},
		{atMost(0.25), math.NaN(), false},
	} {
		if got := tc.band.Contains(tc.v); got != tc.want {
			t.Errorf("%s contains %v = %v, want %v", tc.band.format(false), tc.v, got, tc.want)
		}
	}
}

const experimentsDoc = "../../EXPERIMENTS.md"

// claimsBlock matches one generated table of EXPERIMENTS.md: a marker
// naming the ID sections it shows, the table, and an end marker.
var claimsBlock = regexp.MustCompile(`(?s)(<!-- claims: ([^>]*) -->\n).*?(<!-- end claims -->)`)

// TestExperimentsTables regenerates the paper-vs-measured tables of
// EXPERIMENTS.md from the claims at seed 42 and fails on drift, naming
// the first line that differs. Every claim must appear in exactly one
// table. `-update` rewrites the tables, with the figure goldens.
func TestExperimentsTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	r := seed42()
	claims := Claims()
	shown := make(map[string]int)
	got := claimsBlock.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := claimsBlock.FindStringSubmatch(block)
		sections := strings.Fields(m[2])
		var b strings.Builder
		b.WriteString(m[1])
		b.WriteString("| Claim | Paper | Seed 42 | Band | Status |\n|---|---|---|---|---|\n")
		for _, c := range claims {
			if slices.Contains(sections, strings.SplitN(c.ID, "/", 2)[0]) {
				shown[c.ID]++
				fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", c.ID, c.Paper, c.Format(c.Value(r)), c.BandText(), c.Status)
			}
		}
		return b.String() + m[3]
	})
	for _, c := range claims {
		if shown[c.ID] != 1 {
			t.Errorf("claim %s appears in %d EXPERIMENTS.md tables, want 1", c.ID, shown[c.ID])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(experimentsDoc, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if line, g, w := firstDiff(got, string(doc)); line > 0 {
		t.Errorf("EXPERIMENTS.md line %d is stale (run with -update if the change is meant)\n got: %s\nwant: %s", line, g, w)
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with both lines, or 0 when they are equal.
func firstDiff(got, want string) (int, string, string) {
	if got == want {
		return 0, "", ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of file>"
	}
	return i + 1, line(g), line(w)
}

// TestScorecard runs the scorecard at two seeds: one worker and two
// print the same bytes, one line per claim, and the first seed's column
// is the claims' values at seed 42.
func TestScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	defer resetDefaultLegs()
	var cards [2]Scorecard
	var out [2]string
	for i, procs := range []int{1, 2} {
		resetDefaultLegs()
		prev := runtime.GOMAXPROCS(procs)
		cards[i] = DefaultEnv().Scorecard(2)
		runtime.GOMAXPROCS(prev)
		var b strings.Builder
		if err := cards[i].Write(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	if line, g, w := firstDiff(out[1], out[0]); line > 0 {
		t.Fatalf("scorecard line %d differs between two workers and one\n two: %s\n one: %s", line, g, w)
	}
	claims := Claims()
	if n := strings.Count(out[0], "\n"); n != len(claims)+2 {
		t.Errorf("scorecard prints %d lines, want a seed line, a header and %d claims", n, len(claims))
	}
	if s := cards[0].Seeds; !slices.Equal(s, []uint64{42, 42 + 977}) {
		t.Errorf("scorecard seeds %v, want 42 and 1019", s)
	}
	r := seed42()
	for i, c := range claims {
		got, want := cards[0].Values[i][0], c.Value(r)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: scorecard seed 42 reads %v, TestClaims reads %v", c.ID, got, want)
		}
	}
}
