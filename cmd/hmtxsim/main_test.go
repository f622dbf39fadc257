package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSystemsEndToEnd runs one small benchmark through each execution
// system and checks the human output, the exit status and the -stats-json
// document.
func TestRunSystemsEndToEnd(t *testing.T) {
	for _, system := range []string{"hmtx", "smtx-min", "seq"} {
		t.Run(system, func(t *testing.T) {
			sj := filepath.Join(t.TempDir(), "stats.json")
			var out, errb bytes.Buffer
			code := run([]string{"-bench", "052.alvinn", "-system", system, "-cores", "4", "-stats-json", sj}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			for _, want := range []string{"benchmark:", "cycles:", "hot-loop speedup:"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}

			buf, err := os.ReadFile(sj)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Schema string         `json:"schema"`
				Run    map[string]any `json:"run"`
				Stats  map[string]any `json:"stats"`
			}
			if err := json.Unmarshal(buf, &doc); err != nil {
				t.Fatalf("invalid stats JSON: %v", err)
			}
			if doc.Schema != "hmtx-run/v1" {
				t.Errorf("schema = %q", doc.Schema)
			}
			if doc.Run["system"] != system || doc.Run["bench"] != "052.alvinn" {
				t.Errorf("run doc = %v", doc.Run)
			}
			if c, _ := doc.Run["cycles"].(float64); c <= 0 {
				t.Errorf("cycles = %v", doc.Run["cycles"])
			}
			for _, key := range []string{"engine", "memsys"} {
				sub, ok := doc.Stats[key].(map[string]any)
				if !ok {
					t.Fatalf("stats missing %q subtree", key)
				}
				if key == "memsys" {
					if _, ok := sub["l1[0]"]; !ok {
						t.Errorf("memsys stats missing per-cache entries: %v", sub)
					}
				}
			}
			if system == "hmtx" {
				eng := doc.Stats["engine"].(map[string]any)
				if txc, _ := eng["tx"].(map[string]any); txc["count"].(float64) == 0 {
					t.Errorf("no committed transactions in stats: %v", eng)
				}
			}
		})
	}
}

// TestRunDeterministic checks the acceptance criterion of DESIGN.md §10:
// both the stats JSON and the Chrome trace are byte-identical across two
// runs of the same configuration, and the trace is valid JSON.
func TestRunDeterministic(t *testing.T) {
	do := func() (stdout, stats, trace []byte) {
		dir := t.TempDir()
		sj := filepath.Join(dir, "stats.json")
		tj := filepath.Join(dir, "trace.json")
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "052.alvinn", "-cores", "4",
			"-stats-json", sj, "-trace-out", tj, "-trace-cats", "txn,commit,bus"}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		stats, err := os.ReadFile(sj)
		if err != nil {
			t.Fatal(err)
		}
		trace, err = os.ReadFile(tj)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), stats, trace
	}
	o1, s1, t1 := do()
	o2, s2, t2 := do()
	if !bytes.Equal(s1, s2) {
		t.Error("stats JSON differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs across identical runs")
	}
	if !bytes.Equal(o1, o2) {
		t.Error("stdout differs across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}
	if !strings.Contains(string(o1), "per-transaction timeline") {
		t.Errorf("tracing run missing timeline summary:\n%s", o1)
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bench", "no-such-bench"}, &out, &errb); code != 1 {
		t.Errorf("unknown bench: exit %d", code)
	}
	if code := run([]string{"-bench", "052.alvinn", "-system", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown system: exit %d", code)
	}
	if code := run([]string{"-bench", "052.alvinn", "-trace", "-trace-cats", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown category: exit %d", code)
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("missing bench: exit %d", code)
	}
}

// TestRunMetricsOutputs verifies the -series/-conflicts/-hist flags: each
// writes a well-formed schema-tagged document, the DOT output is valid dot
// syntax, and all are byte-identical across identical runs.
func TestRunMetricsOutputs(t *testing.T) {
	do := func(system string) (series, conflicts, hist, dot []byte) {
		dir := t.TempDir()
		sp := filepath.Join(dir, "series.json")
		cp := filepath.Join(dir, "conflicts.json")
		hp := filepath.Join(dir, "hist.json")
		dp := filepath.Join(dir, "conflicts.dot")
		var out, errb bytes.Buffer
		code := run([]string{"-bench", "052.alvinn", "-system", system, "-cores", "4",
			"-series", sp, "-series-window", "1024",
			"-conflicts", cp, "-conflicts-dot", dp, "-hist", hp}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		read := func(p string) []byte {
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		return read(sp), read(cp), read(hp), read(dp)
	}

	s1, c1, h1, d1 := do("hmtx")
	s2, c2, h2, d2 := do("hmtx")
	for _, eq := range []struct {
		name string
		a, b []byte
	}{{"series", s1, s2}, {"conflicts", c1, c2}, {"hist", h1, h2}, {"dot", d1, d2}} {
		if !bytes.Equal(eq.a, eq.b) {
			t.Errorf("%s differs across identical runs", eq.name)
		}
	}

	var sd struct {
		Schema string `json:"schema"`
		Series []struct {
			Label  string  `json:"label"`
			Cycles []int64 `json:"cycles"`
			Cols   []struct {
				Name string `json:"name"`
			} `json:"columns"`
		} `json:"series"`
	}
	if err := json.Unmarshal(s1, &sd); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if sd.Schema != "hmtx-series/v1" || len(sd.Series) != 1 {
		t.Fatalf("series doc = %+v", sd)
	}
	if sd.Series[0].Label != "052.alvinn/hmtx" || len(sd.Series[0].Cycles) == 0 {
		t.Errorf("series = %+v", sd.Series[0])
	}
	names := map[string]bool{}
	for _, c := range sd.Series[0].Cols {
		names[c.Name] = true
	}
	for _, want := range []string{"instructions", "txs_committed", "aborts", "validation_cycles", "commit_cycles"} {
		if !names[want] {
			t.Errorf("series missing column %q", want)
		}
	}

	var cd struct {
		Schema string `json:"schema"`
		Graphs []struct {
			Edges []any `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.Unmarshal(c1, &cd); err != nil {
		t.Fatalf("conflicts JSON: %v", err)
	}
	if cd.Schema != "hmtx-conflicts/v1" || len(cd.Graphs) != 1 {
		t.Fatalf("conflict doc = %+v", cd)
	}
	if cd.Graphs[0].Edges == nil {
		t.Error("edges should be [] even when empty, not null")
	}

	var hd struct {
		Schema     string `json:"schema"`
		Histograms []struct {
			Hists []struct {
				Name  string `json:"name"`
				Total uint64 `json:"total"`
			} `json:"hists"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(h1, &hd); err != nil {
		t.Fatalf("hist JSON: %v", err)
	}
	if hd.Schema != "hmtx-hist/v1" || len(hd.Histograms) != 1 || len(hd.Histograms[0].Hists) != 3 {
		t.Fatalf("hist doc = %+v", hd)
	}
	if hd.Histograms[0].Hists[0].Name != "open_to_commit" || hd.Histograms[0].Hists[0].Total == 0 {
		t.Errorf("open_to_commit hist = %+v", hd.Histograms[0].Hists[0])
	}

	if !strings.HasPrefix(string(d1), "digraph") || !strings.HasSuffix(string(d1), "}\n") {
		t.Errorf("dot output malformed:\n%s", d1)
	}

	// SMTX runs must populate the validation histogram (§2.3): the paradigm
	// shift hmtxreport charts.
	_, _, hs, _ := do("smtx-min")
	if err := json.Unmarshal(hs, &hd); err != nil {
		t.Fatal(err)
	}
	if hd.Histograms[0].Hists[1].Name != "validation" || hd.Histograms[0].Hists[1].Total == 0 {
		t.Errorf("smtx-min validation hist = %+v", hd.Histograms[0].Hists[1])
	}
}

// TestCheckpointResumeCLI: a run halted at a mid-run checkpoint and resumed
// produces byte-identical stdout and output documents to the same segmented
// run left uninterrupted (the hmtx-ckpt/v2 contract, DESIGN.md §18).
func TestCheckpointResumeCLI(t *testing.T) {
	outputs := func(dir string) []string {
		return []string{
			"-prof-out", filepath.Join(dir, "prof.json"),
			"-series", filepath.Join(dir, "series.json"),
			"-conflicts", filepath.Join(dir, "conflicts.json"),
			"-hist", filepath.Join(dir, "hist.json"),
			// The stats registry rides along: its histograms are carried in
			// the checkpoint's obs_hists and restored after re-registration.
			"-stats-json", filepath.Join(dir, "stats.json"),
		}
	}
	base := []string{"-bench", "052.alvinn", "-cores", "4", "-ckpt-every", "10"}

	fullDir := t.TempDir()
	var fullOut, errb bytes.Buffer
	if code := run(append(append([]string{}, base...), outputs(fullDir)...), &fullOut, &errb); code != 0 {
		t.Fatalf("full run: exit %d, stderr: %s", code, errb.String())
	}

	haltDir := t.TempDir()
	ckptFile := filepath.Join(haltDir, "ckpt.json")
	var haltOut bytes.Buffer
	errb.Reset()
	args := append(append([]string{}, base...), "-ckpt-out", ckptFile, "-ckpt-halt")
	args = append(args, outputs(haltDir)...)
	if code := run(args, &haltOut, &errb); code != 0 {
		t.Fatalf("halted run: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(haltOut.String(), "checkpoint: halted at iteration 10") {
		t.Fatalf("halted run output:\n%s", haltOut.String())
	}
	if _, err := os.Stat(filepath.Join(haltDir, "prof.json")); !os.IsNotExist(err) {
		t.Error("halted run should not write output documents")
	}

	resDir := t.TempDir()
	var resOut bytes.Buffer
	errb.Reset()
	if code := run(append([]string{"-resume", ckptFile}, outputs(resDir)...), &resOut, &errb); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, errb.String())
	}

	// stdout embeds the -series path; normalise the directories away before
	// comparing.
	norm := func(s, dir string) string { return strings.ReplaceAll(s, dir, "DIR") }
	if got, want := norm(resOut.String(), resDir), norm(fullOut.String(), fullDir); got != want {
		t.Errorf("resumed stdout differs from full run:\n--- resumed\n%s\n--- full\n%s", got, want)
	}
	for _, name := range []string{"prof.json", "series.json", "conflicts.json", "hist.json", "stats.json"} {
		full, err := os.ReadFile(filepath.Join(fullDir, name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(filepath.Join(resDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, res) {
			t.Errorf("%s differs between full and resumed run", name)
		}
	}
}

// TestCheckpointFlagValidation covers the resume/instrument mismatch errors.
func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ckptFile := filepath.Join(dir, "ckpt.json")
	var out, errb bytes.Buffer
	code := run([]string{"-bench", "052.alvinn", "-cores", "4", "-ckpt-every", "10",
		"-ckpt-out", ckptFile, "-ckpt-halt",
		"-hist", filepath.Join(dir, "hist.json")}, &out, &errb)
	if code != 0 {
		t.Fatalf("halted run: exit %d, stderr: %s", code, errb.String())
	}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"instrument mismatch", []string{"-resume", ckptFile}, "latency histograms"},
		{"registry mismatch", []string{"-resume", ckptFile, "-hist", filepath.Join(dir, "h3.json"),
			"-stats-json", filepath.Join(dir, "s3.json")}, "statistics registry"},
		{"fixed flag", []string{"-resume", ckptFile, "-cores", "8", "-hist", filepath.Join(dir, "h2.json")}, "conflicts with -resume"},
		{"ckpt on seq", []string{"-bench", "052.alvinn", "-system", "seq", "-ckpt-every", "5"}, "requires -system hmtx"},
		{"halt without every", []string{"-bench", "052.alvinn", "-ckpt-halt"}, "need -ckpt-every"},
	} {
		out.Reset()
		errb.Reset()
		if code := run(tc.args, &out, &errb); code == 0 {
			t.Errorf("%s: want nonzero exit", tc.name)
		} else if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errb.String(), tc.want)
		}
	}
}

// TestMain lets a test re-run this binary as hmtxsim itself.
func TestMain(m *testing.M) {
	if os.Getenv("HMTXSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadMachineConfig: a machine memsys cannot build, or a run of no
// iterations, is a usage error — one line, exit status 2 — not a Go panic
// or a silent success. Each case runs in a child process, so a panic would
// show up as it does for a user: a stack trace on stderr.
func TestBadMachineConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "0"}, "cores must be in 1..255, got 0"},
		{[]string{"-cores", "256"}, "cores must be in 1..255, got 256"},
		{[]string{"-vid-bits", "0"}, "VID width must be in 1..8 bits, got 0"},
		{[]string{"-vid-bits", "9"}, "VID width must be in 1..8 bits, got 9"},
		{[]string{"-scale", "-1"}, "-scale must be at least 1, got -1"},
		{[]string{"-scale", "0"}, "-scale must be at least 1, got 0"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-bench", "052.alvinn"}, tc.args...)...)
			cmd.Env = append(os.Environ(), "HMTXSIM_RUN_MAIN=1")
			var errb bytes.Buffer
			cmd.Stderr = &errb
			err := cmd.Run()
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				t.Fatal(err)
			}
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			stderr := errb.String()
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Errorf("stderr holds a stack trace:\n%s", stderr)
			}
			if strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr is not one line: %q", stderr)
			}
		})
	}
}
