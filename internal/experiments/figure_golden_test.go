package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/workload"
)

const figureGoldenPath = "testdata/figure_golden.json"

// TestPaperFiguresGolden pins the job-running sections of `-run all` —
// Table 3, the expedited rows of Figs 4–6 (with each row's best
// configuration), the single-run rows of Figs 10–12, Fig 13, the
// multi-tenant pair of Figs 14–16, the §7 test-run counts, the
// hot-spot, straggler, amortization, fault-recovery and tournament
// extensions, and the job-stream row (JobStream(9, 30)) — as the
// sha256 of their rows printed at full precision, for DefaultEnv, with
// the arguments cmd/mrexperiments passes; and again, under "crash/",
// with the crash spec armed, as `-run all -faults` runs them. A change anywhere on the
// tuner, config or simulation path that moves a figure shows up here
// as a digest diff. Regenerate with `go test ./internal/experiments
// -run TestPaperFiguresGolden -update` only when a behaviour change is
// meant. The same runs feed the failed-leg ratchet (failedLegs).
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	// Every default leg runs here, not in an earlier test that left it
	// in the memo, so the ratchet sees its job whatever the test order.
	resetDefaultLegs()
	var failed failedJobs
	jobFailed = failed.add
	defer func() { jobFailed = nil }()

	e := DefaultEnv()
	got := figureDigests(e, "", &failed)
	// The fault matrix: the same sections with `-faults
	// examples/faults/crash.json`, i.e. node 3 crashing at t = 40 s in
	// every single-job run. The tournament arms its own churn spec and
	// reads no Env.FaultSpec, so its rows would repeat the clean entry.
	crash, err := faults.Load("../../examples/faults/crash.json")
	if err != nil {
		t.Fatal(err)
	}
	maps.Copy(got, figureDigests(Env{Seed: e.Seed, FaultSpec: crash}, "crash/", &failed))
	slices.Sort(failed.legs)
	if !slices.Equal(failed.legs, failedLegs) {
		t.Errorf("legs whose job ends failed:\n\t%s\nwant (failedLegs):\n\t%s",
			strings.Join(failed.legs, "\n\t"), strings.Join(failedLegs, "\n\t"))
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: rows digest %s, golden %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d figures, golden has %d", len(got), len(want))
	}
}

// failedLegs is the ratchet on figure legs that end failed, as
// "<section> <job>" in sorted order, plain and under "crash/". Each
// prints the time its job gave up as a bar (EXPERIMENTS.md marks them).
// A leg that starts failing and a listed leg that completes both fail
// TestPaperFiguresGolden, so the list only shrinks, and on purpose.
var failedLegs = []string{
	"crash/fig11 bigram/Wikipedia",
	"crash/fig12 bigram/Freebase",
	"crash/fig5 bigram/Wikipedia",
	"crash/fig5 invertedindex/Wikipedia",
	"crash/fig5 wordcount/Wikipedia",
	"crash/fig6 bigram/Freebase",
	"crash/fig6 invertedindex/Freebase",
	"crash/fig6 wordcount/Freebase",
	"fig11 bigram/Wikipedia",
	"fig12 bigram/Freebase",
	"fig5 bigram/Wikipedia",
	"fig5 invertedindex/Wikipedia",
	"fig5 wordcount/Wikipedia",
	"fig6 bigram/Freebase",
	"fig6 invertedindex/Freebase",
	"fig6 wordcount/Freebase",
}

// failedJobs collects, through the jobFailed seam, the jobs that end
// failed while each figure section runs.
type failedJobs struct {
	mu      sync.Mutex
	section string
	legs    []string
}

func (f *failedJobs) add(res mapreduce.Result) {
	f.mu.Lock()
	f.legs = append(f.legs, f.section+" "+res.JobName)
	f.mu.Unlock()
}

// figureDigests runs every job-running section of `-run all` under e
// and returns the sha256 of each section's rows, keyed by prefix and
// section name, naming each section in failed while it runs. With a
// fault spec armed it leaves out the tournament.
func figureDigests(e Env, prefix string, failed *failedJobs) map[string]string {
	type fig struct {
		name string
		rows func() string
	}
	figs := []fig{
		{"fig4", func() string { return rowsText(e.Fig4()) }},
		{"fig5", func() string { return rowsText(e.Fig5()) }},
		{"fig6", func() string { return rowsText(e.Fig6()) }},
		{"fig10", func() string { return rowsText(e.Fig10()) }},
		{"fig11", func() string { return rowsText(e.Fig11()) }},
		{"fig12", func() string { return rowsText(e.Fig12()) }},
		{"jobstream", func() string { return rowsText([]JobStreamRow{e.JobStream(9, 30)}) }},
		{"table3", func() string { return rowsText(e.Table3()) }},
		{"fig13", func() string { return rowsText(e.Fig13()) }},
		{"multitenant", func() string { return rowsText([]MultiTenantResult{e.MultiTenant()}) }},
		{"testruns", func() string { return rowsText(e.TestRunCounts(workload.Terasort(20, 0, 0), 4)) }},
		{"hotspot", func() string { return rowsText([]HotSpotRow{e.HotSpotStudy(4)}) }},
		{"straggler", func() string { return rowsText([]StragglerRow{e.StragglerStudy(3)}) }},
		{"amortization", func() string { return rowsText(e.Amortization(workload.Terasort(60, 0, 0), 8)) }},
		{"faults", func() string { return rowsText(e.FaultRecovery()) }},
	}
	if e.FaultSpec == nil {
		figs = append(figs, fig{"tournament", func() string { return rowsText(e.Tournament(DefaultTournamentSpec())) }})
	}
	got := make(map[string]string, len(figs))
	for _, f := range figs {
		failed.mu.Lock()
		failed.section = prefix + f.name
		failed.mu.Unlock()
		sum := sha256.Sum256([]byte(f.rows()))
		got[prefix+f.name] = hex.EncodeToString(sum[:])
	}
	return got
}

// rowsText prints figure rows one per line with every field at full
// precision.
func rowsText[T any](rows []T) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}
