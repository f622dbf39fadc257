package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as experiments itself.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("EXPERIMENTS_ARGS"))...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadMachineConfig: a machine memsys cannot build, or a suite of no
// iterations, is a usage error — one line, exit status 2 — not a Go panic or
// a silent success. Each case runs in a child process, so a panic would show
// up as it does for a user: a stack trace on stderr.
func TestBadMachineConfig(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-cores 0", "cores must be in 1..255, got 0"},
		{"-cores 256", "cores must be in 1..255, got 256"},
		{"-scale -1", "scale must be at least 1, got -1"},
		{"-scale 0", "scale must be at least 1, got 0"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1", "EXPERIMENTS_ARGS=-q -only table2 "+tc.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				t.Fatal(err)
			}
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.want) {
				t.Errorf("stderr %q does not mention %q", msg, tc.want)
			}
			if strings.Contains(msg, "goroutine ") {
				t.Errorf("stderr holds a stack trace:\n%s", msg)
			}
			if strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one line: %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected configuration still printed output:\n%s", stdout.String())
			}
		})
	}
}
