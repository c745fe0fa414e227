package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current code")

// TestMain lets the tests drive the CLI in a child process: with
// MREXPERIMENTS_RUN_MAIN set, the test binary runs main instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("MREXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mrexperiments runs the CLI in dir with args and returns its stdout,
// stderr and exit code.
func mrexperiments(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "MREXPERIMENTS_RUN_MAIN=1")
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

// Bad -run, -cells and -kb values are rejected before any artifact
// runs: exit 2, nothing on stdout, one line on stderr, and no file
// written. The scorecard's seeds run in parallel, so it takes no -kb.
func TestBadArgsExit2BeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "table2,bogus"},
		{"-run", "fig4", "-cells"},
		{"-html", "report.html", "-cells"},
		{"-run", "scorecard", "-kb", "x.json"},
	} {
		dir := t.TempDir()
		stdout, stderr, code := mrexperiments(t, dir, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want 2, no output and one line",
				args, code, stdout, stderr)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Fatalf("%v wrote %s", args, files[0].Name())
		}
	}
}

// TestRunAllGolden pins the text `-run all` prints, plain and with
// examples/faults/crash.json armed. Regenerate with `go test
// ./cmd/mrexperiments -run TestRunAllGolden -update` only when a
// printed figure or format is meant to change.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every paper artifact in -short mode")
	}
	crash, err := filepath.Abs("../../examples/faults/crash.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"run_all.golden", []string{"-run", "all"}},
		{"run_all_crash.golden", []string{"-run", "all", "-faults", crash}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := mrexperiments(t, t.TempDir(), tc.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
			}
			checkGolden(t, filepath.Join("testdata", tc.golden), stdout)
		})
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
