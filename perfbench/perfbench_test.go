package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hmtx/internal/engine.(*System).pickRunnable", "hmtx/internal/engine.(*System).runSerial"}, "cpu.engine"},
		{[]string{"hmtx/internal/vid.Space.Split", "hmtx/internal/engine.(*System).retryParked"}, "cpu.vid"},
		{[]string{"hmtx/internal/memsys.(*cache).findHit", "hmtx/internal/memsys.(*Hierarchy).Load", "hmtx/internal/engine.(*System).handle"}, "cpu.memsys"},
		{[]string{"runtime.memmove", "hmtx/internal/memsys.New", "hmtx/internal/engine.New"}, "cpu.memsys"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "hmtx/internal/memsys.New"}, "cpu.gc"},
		{[]string{"runtime.lock2", "runtime.(*mheap).alloc", "runtime.mallocgc", "hmtx/internal/check.Run"}, "cpu.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.chansend", "hmtx/internal/engine.(*System).receive"}, "cpu.sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "hmtx/internal/engine.(*Env).rpc"}, "cpu.sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "cpu.sched"},
		{[]string{"hmtx/internal/memsys.(*Hierarchy).SpecOccupancy", "hmtx/internal/engine.(*System).SetSeries.func1", "hmtx/internal/metrics.(*Sampler).sample", "hmtx/internal/engine.(*System).handle"}, "cpu.instruments"},
		{[]string{"hmtx/internal/prof.(*Collector).Charge", "hmtx/internal/engine.(*System).charge"}, "cpu.instruments"},
		{[]string{"encoding/json.(*encodeState).string", "encoding/json.Marshal", "hmtx/internal/ckpt.Write", "main.observe"}, "cpu.ckpt"},
		{[]string{"encoding/hex.Encode", "hmtx/internal/ckpt.CaptureRun"}, "cpu.ckpt"},
		{[]string{"hmtx/internal/memsys.(*Hierarchy).AppendExact", "hmtx/internal/ckpt.CaptureRun"}, "cpu.ckpt"},
		{[]string{"runtime.mallocgc", "hmtx/internal/engine.New", "hmtx/internal/ckpt.RestoreRun"}, "cpu.ckpt"},
		{[]string{"runtime.mapaccess2_faststr", "hmtx/internal/check.Run"}, "cpu.check"},
		{[]string{"encoding/json.Marshal", "hmtx/internal/experiments.WriteJSON"}, "cpu.other"},
		{[]string{"hmtx/internal/workloads.(*parser).Stage2", "hmtx/internal/engine.(*System).Run.func1"}, "cpu.other"},
		{[]string{"runtime.memmove"}, "cpu.other"},
		{nil, "cpu.other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(asideLabel[0], asideLabel[1]), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var plain, aside int64
	for _, s := range samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".spin") {
				if s.aside {
					aside += s.count
				} else {
					plain += s.count
				}
				break
			}
		}
	}
	if plain == 0 || aside == 0 {
		t.Fatalf("spin samples: %d unlabelled, %d labelled; want both > 0", plain, aside)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the metric-name charset and that BENCHMARK.json
// lists exactly the metrics the final lines carry.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEndMetrics...), perLayerMetrics()...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("bad metric name or unit: %q %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range allWorkloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the benchmark reports %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEndMetrics)
	same("per_layer", cfg.PerLayer, perLayerMetrics())
	if len(cfg.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(allWorkloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark's is %s", i, w.Name, allWorkloads[i].name)
		}
	}
}

// tinyParams runs each workload at its smallest size.
var tinyParams = params{
	suiteScale:   1,
	wideScale:    1,
	observeScale: 1,
	check:        checkBound{maxStates: 2000, states: 2000, edges: 14643},
}

// TestSmoke runs one iteration of every workload at tiny scale and requires
// it to pass its output check, including the seed-1 suite digest. The check
// workload also runs traced, covering profiling and span output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			b := newBench(w, tinyParams, 1, dir)
			rep, err := b.measure(time.Millisecond, w.name == "check")
			if err != nil {
				t.Fatal(err)
			}
			if b.attempted == 0 || b.failed != 0 {
				t.Fatalf("%d of %d attempts failed:\n%s", b.failed, b.attempted, strings.Join(rep.lines, "\n"))
			}
			want := endToEndMetrics
			if b.traced {
				want = perLayerMetrics()
			}
			for _, m := range want {
				if v, ok := rep.final[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("metric %s missing or with the wrong unit: %+v", m.name, v)
				}
			}
			if !b.traced {
				for _, m := range endToEndMetrics {
					if rep.final[m.name].Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.name, rep.final[m.name].Value)
					}
				}
			} else {
				var shares float64
				for _, name := range cpuBuckets {
					shares += rep.final[name].Value
				}
				if rep.final["check.states"].Value != 2000 || (shares != 0 && math.Abs(shares-1) > 1e-9) {
					t.Errorf("traced check run reported %d states and CPU shares summing to %v", int(rep.final["check.states"].Value), shares)
				}
			}
		})
	}
}

func TestSameAsFindsDifferences(t *testing.T) {
	b := newBench(allWorkloads[0], tinyParams, 1, t.TempDir())
	b.it = &iteration{}
	ref := image{64: {1, 2}}
	if err := b.sameAs(ref, image{64: {1, 2}, 128: {}}); err != nil {
		t.Errorf("equal images (a zero line is absent memory): %v", err)
	}
	if err := b.sameAs(ref, image{64: {1, 3}}); err == nil {
		t.Error("a differing word went unnoticed")
	}
	if err := b.sameAs(ref, image{64: {1, 2}, 192: {0, 0, 7}}); err == nil {
		t.Error("a line only the speculative run wrote went unnoticed")
	}
	if err := b.sameAs(nil, image{}); err == nil {
		t.Error("a missing reference went unnoticed")
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "check", "--trace", "2"},
		{"--workload", "check", "--seconds", "0"},
		{"--workload", "check", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}

func TestHistQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4}
	if got := histQuantile(buckets, []uint64{0, 10, 0}, 0.5); got != 1.5 {
		t.Errorf("median inside [1,2) = %v, want 1.5", got)
	}
	if got := histQuantile(buckets, []uint64{0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}
