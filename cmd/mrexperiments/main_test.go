package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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

// Bad -run and -cells values are rejected before any artifact runs:
// exit 2, nothing on stdout, one line on stderr.
func TestBadArgsExit2BeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "table2,bogus"},
		{"-run", "fig4", "-cells"},
		{"-html", "report.html", "-cells"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), "MREXPERIMENTS_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want 2, no output and one line",
				args, code, stdout.String(), stderr.String())
		}
	}
}
