package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmtx/internal/lintdoc"
	"hmtx/internal/metrics"
	"hmtx/internal/prof"
)

// fixtures writes one of each artifact kind to dir and returns the paths.
func fixtures(t *testing.T, dir string) (series, conflicts, hist, profile string) {
	t.Helper()

	sm := metrics.NewSampler(100)
	var commits, val uint64
	sm.Probe("txs_committed", func() uint64 { return commits })
	sm.Probe("aborts", func() uint64 { return 0 })
	sm.Probe("validation_cycles", func() uint64 { return val })
	sm.Probe("commit_cycles", func() uint64 { return 40 })
	sm.Probe("spec_lines", func() uint64 { return 7 })
	for i := int64(1); i <= 5; i++ {
		commits, val = uint64(i), uint64(i*300)
		sm.Tick(i * 100)
	}
	sdoc := metrics.SeriesDoc{Schema: metrics.SeriesSchema, Scale: 1, Cores: 4,
		Series: []metrics.Series{sm.Snapshot("bench/hmtx")}}

	rec := metrics.NewRecorder(100)
	rec.SetTime(50)
	rec.Record(1, 2, 0x40, metrics.EdgeConflict)
	rec.SetTime(80)
	rec.Record(2, 3, 0x40, metrics.EdgeConflict)
	cdoc := metrics.ConflictDoc{Schema: metrics.ConflictSchema, Scale: 1, Cores: 4,
		Graphs: []metrics.Graph{rec.Snapshot("bench/hmtx")}}

	l := metrics.NewLatHists()
	for i := uint64(1); i <= 100; i++ {
		l.Open.Observe(i * 10)
		l.CommitArb.Observe(i % 3)
	}
	hdoc := metrics.HistDoc{Schema: metrics.HistSchema, Scale: 1, Cores: 4,
		Histograms: []metrics.LabeledHists{l.Snapshot("bench/hmtx")}}

	pdoc := prof.Doc{Schema: prof.Schema, Scale: 1, Cores: 4, Profiles: []prof.Profile{{
		Label: "bench/hmtx", Workload: "bench", System: "hmtx", Paradigm: "DOALL",
		Runs: 1, TotalCycles: 1000, CoreCycles: 1000,
		Buckets: map[string]int64{"compute": 1000},
		HotLines: []prof.LineProfile{
			{Addr: "0x40", Conflicts: 2, AccessCycles: 500, WastedCycles: 100},
			{Addr: "0x80", Conflicts: 1, AccessCycles: 200},
		},
	}}}

	write := func(name string, v any) string {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("series.json", sdoc), write("conflicts.json", cdoc),
		write("hist.json", hdoc), write("prof.json", pdoc)
}

// TestReportHTML verifies the HTML report: all four sections render, the §6
// validation-vs-commit chart is present, the output is self-contained, and
// byte-identical across runs.
func TestReportHTML(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, pp := fixtures(t, dir)
	render := func(out string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-series", sp, "-conflicts", cp, "-hist", hp, "-prof", pp, "-o", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	html := render(filepath.Join(dir, "a.html"))
	for _, want := range []string{
		"<h2>Time series</h2>",
		"Validation vs commit cycles",
		"Commit throughput and aborts",
		"<polyline",
		"<h2>Conflicts</h2>",
		"2 abort edges",
		"<h2>Latency</h2>",
		"open_to_commit",
		"<h2>Per-line heatmap</h2>",
		"rgba(214,39,40,0.60)",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(html, banned) {
			t.Errorf("report not self-contained: found %q", banned)
		}
	}
	if html2 := render(filepath.Join(dir, "b.html")); html2 != html {
		t.Error("HTML differs across identical runs")
	}
}

// TestReportText verifies the plain-text mode renders every section.
func TestReportText(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, pp := fixtures(t, dir)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-series", sp, "-conflicts", cp, "-hist", hp, "-prof", pp}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"time series: bench/hmtx", "conflict graph: bench/hmtx",
		"latency histograms: bench/hmtx", "per-line heatmap: bench/hmtx"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestDiff verifies the diff subcommand on each schema and its schema
// mismatch error.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	sp, cp, hp, _ := fixtures(t, dir)

	for _, tc := range []struct {
		path, want string
	}{
		{sp, "txs_committed"},
		{cp, "A edges"},
		{hp, "p50 B/A"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"diff", tc.path, tc.path}, &stdout, &stderr); code != 0 {
			t.Fatalf("diff exit %d, stderr: %s", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("diff of %s missing %q:\n%s", tc.path, tc.want, stdout.String())
		}
		// Self-diff of a series must show 1.00x ratios.
		if tc.path == sp && !strings.Contains(stdout.String(), "1.00x") {
			t.Errorf("series self-diff missing 1.00x:\n%s", stdout.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"diff", sp, hp}, &stdout, &stderr); code != 1 {
		t.Fatalf("schema mismatch: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "schema mismatch") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// A checkpoint is not a metric document: the diff must refuse it and
	// point at hmtxdbg rather than report an unknown schema.
	kp := filepath.Join(dir, "ckpt.json")
	if err := os.WriteFile(kp, []byte(`{"schema": "hmtx-ckpt/v2", "kind": "run"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"diff", kp, kp}, &stdout, &stderr); code != 1 {
		t.Fatalf("ckpt diff: exit %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "hmtxdbg") || !strings.Contains(msg, "hmtx-ckpt/v2") {
		t.Errorf("ckpt diff stderr should point at hmtxdbg, got %q", msg)
	}
}

// TestDiffLint verifies the hmtx-lint/v1 diff: roster table, new and fixed
// finding movement, and line-drift tolerance.
func TestDiffLint(t *testing.T) {
	dir := t.TempDir()
	a := lintdoc.Doc{Schema: lintdoc.Schema,
		Analyzers: []lintdoc.Analyzer{{Name: "domaindrain", Version: "2"}, {Name: "hotalloc", Version: "1"}},
		Findings: []lintdoc.Finding{
			{File: "x.go", Line: 10, Col: 2, Analyzer: "hotalloc", Message: "make allocates"},
			{File: "x.go", Line: 20, Col: 2, Analyzer: "hotalloc", Message: "fixed later"},
		}}
	b := lintdoc.Doc{Schema: lintdoc.Schema,
		Analyzers: a.Analyzers,
		Findings: []lintdoc.Finding{
			// Same finding, moved: must not count as new.
			{File: "x.go", Line: 14, Col: 2, Analyzer: "hotalloc", Message: "make allocates"},
			{File: "y.go", Line: 1, Col: 1, Analyzer: "domaindrain", Message: "brand new"},
		}}
	write := func(name string, v any) string {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := write("a.json", a), write("b.json", b)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"diff", pa, pb}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"lint diff: A has 2 findings, B has 2",
		"domaindrain",
		"new in B",
		"brand new",
		"fixed in B",
		"fixed later",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lint diff missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "make allocates") {
		t.Errorf("moved finding reported as churn:\n%s", out)
	}
}

// TestBadInput verifies argument and file errors.
func TestBadInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-series", "/nonexistent.json"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run([]string{"diff", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("diff one arg: exit %d, want 2", code)
	}

	// A series document with the wrong schema tag must be rejected.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hmtx-prof/v1","series":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-series", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("wrong schema: exit %d, want 1", code)
	}
}
