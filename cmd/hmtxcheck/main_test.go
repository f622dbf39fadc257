package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, _ := runMain(t, "-cores", "2", "-addrs", "1", "-vids", "1")
	if code != 0 {
		t.Fatalf("exit=%d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "result: ok") || !strings.Contains(out, "exhausted=true") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

func TestInjectedBugExitsOne(t *testing.T) {
	code, out, _ := runMain(t, "-vids", "1", "-inject", "stale-sscopy-on-convert")
	if code != 1 {
		t.Fatalf("exit=%d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "counterexample") {
		t.Fatalf("missing counterexample in report:\n%s", out)
	}
}

func TestQuietAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sum.json")
	code, out, _ := runMain(t, "-q", "-json", path)
	if code != 0 {
		t.Fatalf("exit=%d, want 0", code)
	}
	if out != "" {
		t.Fatalf("-q still wrote output: %q", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		States    int  `json:"states"`
		Exhausted bool `json:"exhausted"`
	}
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if sum.States == 0 || !sum.Exhausted {
		t.Fatalf("implausible JSON summary: %+v", sum)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runMain(t, "-cores", "99"); code != 2 {
		t.Fatal("invalid bounds must exit 2")
	}
	if code, _, _ := runMain(t, "-inject", "no-such-bug"); code != 2 {
		t.Fatal("unknown -inject must exit 2")
	}
	if code, _, _ := runMain(t, "stray-arg"); code != 2 {
		t.Fatal("positional arguments must exit 2")
	}
}

// TestBadBounds: a count flag below its minimum — including an explicit 0,
// which check.Config would silently replace by the default — exits 2 with
// one error line naming the flag and the value given, and no panic.
func TestBadBounds(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "0", "-max-states", "50"}, "-cores must be at least 1, got 0"},
		{[]string{"-addrs", "0"}, "-addrs must be at least 1, got 0"},
		{[]string{"-vids", "0"}, "-vids must be at least 1, got 0"},
		{[]string{"-store-vals", "0"}, "-store-vals must be at least 1, got 0"},
		{[]string{"-store-vals", "-1"}, "-store-vals must be at least 1, got -1"},
		{[]string{"-l1ways", "0"}, "-l1ways must be at least 1, got 0"},
		{[]string{"-l2ways", "0"}, "-l2ways must be at least 1, got 0"},
		{[]string{"-max-states", "-1"}, "-max-states must be at least 0, got -1"},
		{[]string{"-max-depth", "-2"}, "-max-depth must be at least 0, got -2"},
	} {
		t.Run(strings.Join(tc.args, "_"), func(t *testing.T) {
			code, out, stderr := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit=%d, want 2\nstdout:\n%s", code, out)
			}
			if want := "hmtxcheck: " + tc.want + "\n"; stderr != want {
				t.Fatalf("stderr %q, want %q", stderr, want)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Fatalf("stderr holds a panic trace:\n%s", stderr)
			}
			if out != "" {
				t.Fatalf("a rejected run wrote a report:\n%s", out)
			}
		})
	}
}
