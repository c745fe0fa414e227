package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestMain lets the tests drive the CLI in a child process: with
// MRLINT_RUN_MAIN set, the test binary runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("MRLINT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mrlint runs the CLI with args and returns its stdout, stderr and
// exit code.
func mrlint(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MRLINT_RUN_MAIN=1")
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

// cleanModule writes a one-file module with no findings and one
// well-formed suppression, and returns its root.
func cleanModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module clean\n\ngo 1.22\n",
		"x.go":   "package clean\n\n// N is the answer.\nvar N = 42 //mrlint:ignore no-wallclock kept to list one suppression\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const badmod = "../../internal/lint/testdata/badmod"

// The exit status is 0 on a clean module, 1 with findings and 2 on a
// usage error, which prints one line and nothing on stdout.
func TestExitCodes(t *testing.T) {
	if out, errOut, code := mrlint(t, "-C", cleanModule(t), "./..."); code != 0 || out != "" {
		t.Errorf("clean module: exit %d, stdout %q, stderr %q; want 0 and no output", code, out, errOut)
	}

	out, errOut, code := mrlint(t, "-C", badmod, "./...")
	findings := strings.Count(out, "\n")
	if code != 1 || findings == 0 || errOut != fmt.Sprintf("mrlint: %d finding(s)\n", findings) {
		t.Errorf("badmod: exit %d, %d finding lines, stderr %q; want 1 and a count of the lines", code, findings, errOut)
	}

	out, errOut, code = mrlint(t, "-rules", "no-wallclock,no-such-rule", "./...")
	if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, `unknown rule "no-such-rule"`) {
		t.Errorf("unknown rule: exit %d, stdout %q, stderr %q; want 2 and one line naming the rule", code, out, errOut)
	}
}

// -json -suppressions prints one object holding the findings and every
// directive; a clean module's findings are an empty array, not null.
func TestJSONSuppressions(t *testing.T) {
	for _, tc := range []struct {
		dir          string
		code         int // 1 when the module has findings
		suppressions int
	}{{cleanModule(t), 0, 1}, {badmod, 1, 2}} {
		out, errOut, code := mrlint(t, "-json", "-suppressions", "-C", tc.dir, "./...")
		if code != tc.code {
			t.Fatalf("%s: exit %d, want %d; stderr %q", tc.dir, code, tc.code, errOut)
		}
		var report struct {
			Findings     *[]lint.Finding  `json:"findings"`
			Suppressions []lint.Directive `json:"suppressions"`
		}
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&report); err != nil {
			t.Fatalf("%s: decode: %v\n%s", tc.dir, err, out)
		}
		if report.Findings == nil || (len(*report.Findings) > 0) != (code == 1) {
			t.Errorf("%s: findings %v with exit %d", tc.dir, report.Findings, code)
		}
		if len(report.Suppressions) != tc.suppressions {
			t.Errorf("%s: %d suppressions, want %d", tc.dir, len(report.Suppressions), tc.suppressions)
		}
	}
}
