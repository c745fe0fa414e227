package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/mapreduce"
)

const figureGoldenPath = "testdata/figure_golden.json"

// TestPaperFiguresGolden pins the job-running sections of `-run all` —
// Table 3, the expedited rows of Figs 4–6 (with each row's best
// configuration), the single-run rows of Figs 10–12, Fig 13, the
// multi-tenant pair of Figs 14–16, the §7 test-run counts, the
// hot-spot, straggler, amortization, fault-recovery and tournament
// extensions, and the job-stream row — as the sha256 of their rows
// printed at full precision, for DefaultEnv, with the arguments
// Sections gives them; and again, under "crash/", with the crash spec
// armed, as `-run all -faults` runs them. A change anywhere on the
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

// figureDigests walks Sections serially under e, computing the rows of
// each section of `-run all` once, and returns the sha256 of each rows,
// keyed by prefix and the rows' key, naming the rows in failed while
// they run. With a fault spec armed it leaves out the tournament.
func figureDigests(e Env, prefix string, failed *failedJobs) map[string]string {
	got := make(map[string]string)
	for _, s := range Sections() {
		key := prefix + s.key()
		if s.run == nil || got[key] != "" || s.NotInAll || e.FaultSpec != nil && s.ID == "tournament" {
			continue
		}
		failed.mu.Lock()
		failed.section = key
		failed.mu.Unlock()
		sum := sha256.Sum256([]byte(rowsText(s.run(e, e.NewResults(false)))))
		got[key] = hex.EncodeToString(sum[:])
	}
	return got
}

// rowsText prints a section's rows, a slice or a single row, one row a
// line with every field at full precision.
func rowsText(rows any) string {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		v = reflect.ValueOf([]any{rows})
	}
	var b strings.Builder
	for i := range v.Len() {
		fmt.Fprintf(&b, "%+v\n", v.Index(i).Interface())
	}
	return b.String()
}
