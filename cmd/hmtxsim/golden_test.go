package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestWideMachinePinned pins the 255-core run
//
//	hmtxsim -bench 052.alvinn -cores 255 -scale 2 -stats-json STATS.json
//
// to digests of its stdout and -stats-json document taken before the
// coroutine engine (DESIGN.md §9.1). The experiment-suite pins
// (internal/experiments TestFig8DocumentsPinned) cover 4 cores only; the
// scheduler's pick and wake order matter most on the widest machine.
func TestWideMachinePinned(t *testing.T) {
	sj := filepath.Join(t.TempDir(), "stats.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-bench", "052.alvinn", "-cores", "255", "-scale", "2", "-stats-json", sj}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	doc, err := os.ReadFile(sj)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"stdout", "aa8c946754a1cfbf6100f6e45295fa7108fc56eff9dc45d3c310f9054aa8ac01", out.Bytes()},
		{"stats-json", "13d923bf725b26e1785187e3afda89f0fe39e78c8e40923e901e31c261c08948", doc},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
