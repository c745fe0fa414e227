package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current code")

// TestMain lets the tests drive the CLI in a child process: with
// MRONLINE_RUN_MAIN set, the test binary runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("MRONLINE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mronline runs the CLI with args and returns its stderr and exit code.
func mronline(t *testing.T, args ...string) (string, int) {
	t.Helper()
	_, stderr, code := mronlineOut(t, args...)
	return stderr, code
}

// mronlineOut is mronline that also returns the CLI's stdout.
func mronlineOut(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MRONLINE_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return out.String(), errOut.String(), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

func TestKBRoundTrip(t *testing.T) {
	kb := filepath.Join(t.TempDir(), "kb.json")
	var reports [3]Report
	for i, strategy := range []string{"aggressive", "aggressive", "kb"} {
		out, msg, code := mronlineOut(t, "-bench", "terasort/20GB", "-strategy", strategy, "-kb", kb, "-json")
		if code != 0 {
			t.Fatalf("run %d (-strategy %s) exited %d: %s", i+1, strategy, code, msg)
		}
		if err := json.Unmarshal([]byte(out), &reports[i]); err != nil {
			t.Fatalf("run %d (-strategy %s): %v in %q", i+1, strategy, err, out)
		}
	}
	// The kb run and the second aggressive run's tuned run both run the
	// stored configuration on a fresh testbed with the same seed, and
	// the stored configuration beats the test run that found it.
	second, hit := reports[1], reports[2]
	if hit.DurationSecs != second.DurationSecs {
		t.Fatalf("kb run took %v s, the stored configuration's run %v s", hit.DurationSecs, second.DurationSecs)
	}
	if hit.DurationSecs >= second.TestRunSecs {
		t.Fatalf("kb run (%v s) not faster than the test run (%v s)", hit.DurationSecs, second.TestRunSecs)
	}
	back, err := core.Load(kb)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := back.Get(core.Key("terasort/20GB", 20*1024)); e.Config == nil || !e.Map.HaveBest || e.Jobs != 2 {
		t.Fatalf("knowledge base after two aggressive runs: %+v", e)
	}
}

func TestKBCorruptFileExits2Untouched(t *testing.T) {
	kb := filepath.Join(t.TempDir(), "kb.json")
	corrupt := []byte(`{"terasort/2GB|2^11MB": {"map": {`)
	if err := os.WriteFile(kb, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"aggressive", "kb"} {
		msg, code := mronline(t, "-bench", "terasort/2GB", "-strategy", strategy, "-kb", kb)
		if code != 2 || !strings.Contains(msg, kb) || strings.Count(msg, "\n") != 1 {
			t.Fatalf("-strategy %s: exit %d, stderr %q; want 2 and one line naming the file", strategy, code, msg)
		}
		if got, _ := os.ReadFile(kb); !bytes.Equal(got, corrupt) {
			t.Fatalf("-strategy %s rewrote the corrupt file", strategy)
		}
	}
}

func TestKBSaveFailureExits1(t *testing.T) {
	kb := filepath.Join(t.TempDir(), "missing-dir", "kb.json")
	if msg, code := mronline(t, "-bench", "terasort/2GB", "-strategy", "aggressive", "-kb", kb); code != 1 {
		t.Fatalf("unwritable -kb: exit %d (%s), want 1", code, msg)
	}
}

// TestBadStreamExits2: -stream takes 0 or a positive finite number of
// hours; anything else, or a horizon the arrival process rejects, is a
// one-line usage error rather than a panic or a silent single-job run.
func TestBadStreamExits2(t *testing.T) {
	for _, hours := range []string{"Inf", "NaN", "-1", "1e306"} {
		msg, code := mronline(t, "-stream", hours)
		if code != 2 || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine ") {
			t.Fatalf("-stream %s: exit %d, stderr %q; want 2 and one line", hours, code, msg)
		}
	}
}

// TestFaultNodeOutOfRangeExits2: a valid-JSON fault spec naming a node
// the serving cluster lacks is a one-line usage error, not a panic.
func TestFaultNodeOutOfRangeExits2(t *testing.T) {
	msg, code := mronline(t, "-stream", "0.01", "-faults", "testdata/faults_node_out_of_range.json")
	if code != 2 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "out of range") ||
		strings.Contains(msg, "goroutine ") {
		t.Fatalf("exit %d, stderr %q; want 2 and one line saying the node is out of range", code, msg)
	}
}

// An entry with search state but no configuration is a warm start for
// aggressive runs, not a configuration for -strategy kb.
func TestKBSearchOnlyEntryIsNotAHit(t *testing.T) {
	kb := core.NewKnowledgeBase()
	var e core.Entry
	e.Map.HaveBest = true
	kb.Update(core.Key("terasort/2GB", 2*1024), e)
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := kb.Save(path); err != nil {
		t.Fatal(err)
	}
	msg, code := mronline(t, "-bench", "terasort/2GB", "-strategy", "kb", "-kb", path)
	if code != 1 || !strings.Contains(msg, "no knowledge base configuration") {
		t.Fatalf("exit %d, stderr %q; want 1 and a missing-configuration error", code, msg)
	}
}

// -compare prints one comparison table, so every per-run output flag is
// a one-line usage error instead of being silently dropped; -trace
// writes no file.
func TestCompareRejectsPerRunFlags(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	for _, args := range [][]string{
		{"-trace", tracePath}, {"-gantt"}, {"-explain"}, {"-counters"}, {"-json"}, {"-speculation"},
	} {
		msg, code := mronline(t, append([]string{"-compare", "-bench", "terasort/2GB"}, args...)...)
		if code != 2 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]) {
			t.Fatalf("-compare %s: exit %d, stderr %q; want 2 and one line naming the flag", args[0], code, msg)
		}
	}
	if _, err := os.Stat(tracePath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-compare -trace left %s behind (stat: %v)", tracePath, err)
	}
}

// TestReportGolden pins the text of a strategy comparison and of a
// single-job report. Regenerate with `go test ./cmd/mronline -run
// TestReportGolden -update` only when a printed figure or format is
// meant to change.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"compare_wordcount_wikipedia.golden", []string{"-bench", "wordcount/Wikipedia", "-compare"}},
		{"offline_bigram_wikipedia.golden", []string{"-bench", "bigram/Wikipedia", "-strategy", "offline"}},
	} {
		stdout, stderr, code := mronlineOut(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		checkGolden(t, filepath.Join("testdata", tc.golden), stdout)
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update. A mismatch names the first line that differs.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Fatalf("%s: line %d differs (run with -update only if the change is meant)\n got: %s\nwant: %s",
		path, i+1, line(g), line(w))
}
