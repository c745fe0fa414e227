package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// Bad -run, -cells, -kb and -faults values are rejected before any
// artifact runs: exit 2, nothing on stdout, one line on stderr, and no
// file written. The scorecard's seeds run in parallel, so it takes no
// -kb; Table 3 runs on the 19-node testbed, which has no node 200.
func TestBadArgsExit2BeforeRunning(t *testing.T) {
	node200, err := filepath.Abs("testdata/faults_node_200.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-run", "table2,bogus"},
		{"-run", "fig4", "-cells"},
		{"-html", "report.html", "-cells"},
		{"-run", "scorecard", "-kb", "x.json"},
		{"-run", "table3", "-faults", node200},
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

// kbDigest is the sha256 of the knowledge base `-run all -kb` saves
// when it starts from no file.
const kbDigest = "101bbfb988533b5bcad69d1934cba72b249ca7ec798698d60afda98f08d636b9"

// TestRunAllGolden pins the text `-run all` prints, plain, with
// examples/faults/crash.json armed, and with a fresh -kb file, whose
// saved bytes it pins by sha256. fig13, testruns and amortization
// warm-start one after another from that knowledge base, so the -kb
// run pins the order the sections run in. Regenerate with `go test
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
		{"run_all_kb.golden", []string{"-run", "all", "-kb", "kb.json"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			stdout, stderr, code := mrexperiments(t, dir, tc.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
			}
			checkGolden(t, filepath.Join("testdata", tc.golden), stdout)
			if _, err := os.Stat(filepath.Join(dir, "kb.json")); err == nil {
				if got := fileDigest(t, filepath.Join(dir, "kb.json")); got != kbDigest {
					t.Errorf("saved knowledge base sha256 %s, want %s", got, kbDigest)
				}
			}
		})
	}
}

// htmlDigest is the sha256 of the report `-html` writes.
const htmlDigest = "fc40355284c93246e360eb531dab9e2e34f487933009d9bc89a881cc450ba2da"

// TestHTMLDigest pins the bytes of the -html report by sha256, with one
// worker and with two.
func TestHTMLDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("every paper artifact in -short mode")
	}
	for _, procs := range []string{"1", "2"} {
		t.Run("GOMAXPROCS="+procs, func(t *testing.T) {
			t.Setenv("GOMAXPROCS", procs)
			dir := t.TempDir()
			if _, stderr, code := mrexperiments(t, dir, "-html", "report.html"); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if got := fileDigest(t, filepath.Join(dir, "report.html")); got != htmlDigest {
				t.Errorf("report sha256 %s, want %s", got, htmlDigest)
			}
		})
	}
}

// fileDigest returns the hex sha256 of the file at path.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
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
