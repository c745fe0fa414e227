package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
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
// meant.
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	e := DefaultEnv()
	got := figureDigests(e, "")
	// The fault matrix: the same sections with `-faults
	// examples/faults/crash.json`, i.e. node 3 crashing at t = 40 s in
	// every single-job run. The tournament arms its own churn spec and
	// reads no Env.FaultSpec, so its rows would repeat the clean entry.
	crash, err := faults.Load("../../examples/faults/crash.json")
	if err != nil {
		t.Fatal(err)
	}
	maps.Copy(got, figureDigests(Env{Seed: e.Seed, FaultSpec: crash}, "crash/"))

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

// figureDigests runs every job-running section of `-run all` under e
// and returns the sha256 of each section's rows, keyed by prefix and
// section name. With a fault spec armed it leaves out the tournament.
func figureDigests(e Env, prefix string) map[string]string {
	type fig struct{ name, rows string }
	figs := []fig{
		{"fig4", rowsText(e.Fig4())},
		{"fig5", rowsText(e.Fig5())},
		{"fig6", rowsText(e.Fig6())},
		{"fig10", rowsText(e.Fig10())},
		{"fig11", rowsText(e.Fig11())},
		{"fig12", rowsText(e.Fig12())},
		{"jobstream", rowsText([]JobStreamRow{e.JobStream(9, 30)})},
		{"table3", rowsText(e.Table3())},
		{"fig13", rowsText(e.Fig13())},
		{"multitenant", rowsText([]MultiTenantResult{e.MultiTenant()})},
		{"testruns", rowsText(e.TestRunCounts(workload.Terasort(20, 0, 0), 4))},
		{"hotspot", rowsText([]HotSpotRow{e.HotSpotStudy(4)})},
		{"straggler", rowsText([]StragglerRow{e.StragglerStudy(3)})},
		{"amortization", rowsText(e.Amortization(workload.Terasort(60, 0, 0), 8))},
		{"faults", rowsText(e.FaultRecovery())},
	}
	if e.FaultSpec == nil {
		figs = append(figs, fig{"tournament", rowsText(e.Tournament(DefaultTournamentSpec()))})
	}
	got := make(map[string]string, len(figs))
	for _, f := range figs {
		sum := sha256.Sum256([]byte(f.rows))
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
