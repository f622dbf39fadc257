package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one workload's run: its settings, the spans of the calls it makes
// into the simulator's layers, and the outcome of every output check.
type bench struct {
	w    workload
	p    params
	seed int64
	dir  string

	attempted, failed int
	problems          []string // one line per failed attempt

	t0     time.Time // span times are relative to it
	traced bool      // keep span records (set for the traced half of --trace 1)
	spans  []span
	open   []openSpan
	it     *iteration
	iter   int
	ref    image // the sequential reference image, once computed
}

// span is one call into a layer. Spans of one iteration share Iter; Parent
// indexes the enclosing span, -1 at the top level.
type span struct {
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	start    time.Time
	children time.Duration
	idx      int // into bench.spans, -1 when not traced
}

// iteration is what one repetition of a workload measured.
type iteration struct {
	total time.Duration // wall time of the whole iteration
	aside time.Duration // the part of total spent outside the workload
	// setups are set-up time samples in seconds: engine.New, Spec.New and
	// Loop.Setup summed over the iteration's simulations, or, for the
	// checker, which has none, its timed set-up repetitions.
	setups []float64
	self   map[string]time.Duration // span self time by span name
	// counts holds the per-layer counts and ratios, keyed by metric name.
	counts map[string]float64
	// ckptBytes, ckptLines and geomean feed end-to-end metrics only.
	ckptBytes, ckptLines float64
	geomean              float64
	peakRSS              float64 // MB
}

func newBench(w workload, p params, seed int64, dir string) *bench {
	return &bench{w: w, p: p, seed: seed, dir: dir}
}

// wall is the iteration's measured time: the workload alone.
func (it *iteration) wall() float64 { return (it.total - it.aside).Seconds() }

// simTime is the host time spent inside simulation runs.
func (it *iteration) simTime() float64 {
	return (it.self["paradigm.seq_run_s"] + it.self["hmtx.run_s"] + it.self["smtx.run_s"]).Seconds()
}

// span times f as one call into the named layer. The time of nested spans
// is subtracted, so iteration.self holds each layer's self time.
func (b *bench) span(name string, f func()) {
	parent := -1
	if n := len(b.open); n > 0 {
		parent = b.open[n-1].idx
	}
	o := openSpan{start: time.Now(), idx: -1}
	if b.traced {
		b.spans = append(b.spans, span{Name: name, Iter: b.iter, Parent: parent, Start: o.start.Sub(b.t0).Nanoseconds()})
		o.idx = len(b.spans) - 1
	}
	b.open = append(b.open, o)
	defer func() {
		o := b.open[len(b.open)-1]
		b.open = b.open[:len(b.open)-1]
		end := time.Now()
		d := end.Sub(o.start)
		b.it.self[name] += d - o.children
		if n := len(b.open); n > 0 {
			b.open[n-1].children += d
		}
		if o.idx >= 0 {
			b.spans[o.idx].End = end.Sub(b.t0).Nanoseconds()
		}
	}()
	f()
}

// aside runs work that is not part of the workload — output checks and the
// checker's set-up repetitions behind its setup_s. Its time is left out of
// the iteration's wall time and, through a pprof label, out of the CPU
// shares.
func (b *bench) aside(f func()) {
	start := time.Now()
	defer func() { b.it.aside += time.Since(start) }()
	b.labelAside(f)
}

// labelAside runs f under the pprof label that keeps its CPU samples out of
// the shares.
func (b *bench) labelAside(f func()) {
	if !b.traced {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(asideLabel[0], asideLabel[1]), func(context.Context) { f() })
}

// attempt runs one unit of work — a simulation, a checker run or a
// document — and counts it as failed if it panics or returns an error,
// which includes failing its output check.
func (b *bench) attempt(what string, f func() error) {
	b.attempted++
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}()
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("iteration %d: %s: %v", b.iter, what, err))
	}
}

// repeat runs whole iterations until it has run atLeast of them and the next
// would end after d. Each iteration starts with the previous one's heap
// collected and returned to the operating system and the peak-RSS counter
// reset, so that its peak memory is its own.
func (b *bench) repeat(d time.Duration, atLeast int) []*iteration {
	start := time.Now()
	var its []*iteration
	for {
		it := &iteration{self: map[string]time.Duration{}, counts: map[string]float64{}}
		b.it = it
		b.iter++
		b.labelAside(func() {
			debug.FreeOSMemory()
			resetPeakRSS()
		})
		t := time.Now()
		b.w.iterate(b)
		it.peakRSS = peakRSSMB()
		if s := it.self["engine.new_s"] + it.self["workloads.setup_s"]; s > 0 {
			it.setups = append(it.setups, s.Seconds())
		}
		it.total = time.Since(t)
		derive(it)
		its = append(its, it)
		if len(its) >= atLeast && time.Since(start)+it.total > d {
			return its
		}
	}
}

// derive fills the per-layer ratios from an iteration's counts and spans.
func derive(it *iteration) {
	c := it.counts
	c["engine.commit_ratio"] = ratio(c["engine.txs"], c["engine.txs"]+c["engine.aborts"])
	c["engine.host_ns_per_instr"] = ratio(it.simTime()*1e9, c["engine.instructions"])
	c["check.new_state_ratio"] = ratio(c["check.states"], c["check.edges"])
	c["ckpt.bytes_per_touched_line"] = ratio(it.ckptBytes, it.ckptLines)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs the workload for about d and reports medians over its
// iterations. The first iteration is a warm-up: its outputs are checked, but
// it is not measured. It alone starts from a fresh heap, which makes it
// faster than the iterations after it (they take about 40% longer on
// observe), and outside the suite it also computes the sequential reference.
// Untraced, measure then runs at least two iterations and reports the
// end-to-end metrics. Traced, the first half of the rest runs untraced as
// the reference for trace_overhead and the second half records spans, a CPU
// profile and runtime/metrics deltas, and it reports the per-layer metrics.
func (b *bench) measure(d time.Duration, traced bool) (*report, error) {
	b.t0 = time.Now()
	b.repeat(0, 1)
	if !traced {
		return b.endToEnd(b.repeat(d-time.Since(b.t0), 2)), nil
	}
	plain := b.repeat((d-time.Since(b.t0))/2, 1)
	b.traced = true
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	its := b.repeat(d-time.Since(b.t0), 1)
	pprof.StopCPUProfile()
	rt := readRuntime().since(before, len(its))
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	if err := b.writeSpans(); err != nil {
		return nil, err
	}
	return b.perLayer(plain, its, shares, rt), nil
}

// writeSpans writes the traced run's spans, kept in memory until now.
func (b *bench) writeSpans() error {
	buf, err := json.MarshalIndent(b.spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.dir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func collect(its []*iteration, f func(*iteration) float64) []float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return xs
}

func spread(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("median of %d; q1 %.6g, q3 %.6g", len(xs), q[0], q[2])
}

// header starts a report with the run's identity and any failed checks.
func (b *bench) header(its []*iteration, mode string) *report {
	r := &report{final: map[string]value{}}
	var aside float64
	for _, it := range its {
		aside += it.aside.Seconds()
	}
	r.lines = append(r.lines, fmt.Sprintf("workload %s (%s), seed %d, %s: %d iterations after a warm-up; %.3g s of output checks and set-up repetitions left out",
		b.w.name, b.w.why, b.seed, mode, len(its), aside))
	for _, p := range b.problems {
		r.lines = append(r.lines, "  FAIL "+p)
	}
	return r
}

// endToEnd reports the end-to-end metrics. The final JSON line carries the
// ones every workload has; the lines above it add those that apply only to
// this workload.
func (b *bench) endToEnd(its []*iteration) *report {
	r := b.header(its, "end-to-end, untraced")
	put := func(name, unit string, xs []float64, final bool) {
		m := median(xs)
		r.add(name, m, unit, spread(xs))
		if final {
			r.final[name] = value{m, unit}
		}
	}
	walls := collect(its, (*iteration).wall)
	put("wall_s", "s", walls, true)
	var setups []float64
	for _, it := range its {
		setups = append(setups, it.setups...)
	}
	put("setup_s", "s", setups, true)
	if its[0].counts["engine.instructions"] > 0 {
		put("sim_minstr_per_s", "Minstr/s", collect(its, func(it *iteration) float64 {
			return it.counts["engine.instructions"] / 1e6 / it.wall()
		}), false)
	}
	if its[0].counts["check.states"] > 0 {
		put("check_states_per_s", "1/s", collect(its, func(it *iteration) float64 {
			return it.counts["check.states"] / it.wall()
		}), false)
	}
	if its[0].ckptBytes > 0 {
		put("ckpt_save_s", "s", collect(its, func(it *iteration) float64 {
			return (it.self["ckpt.capture_s"] + it.self["ckpt.write_s"]).Seconds()
		}), false)
		put("ckpt_resume_s", "s", collect(its, func(it *iteration) float64 {
			return (it.self["ckpt.read_s"] + it.self["ckpt.restore_s"]).Seconds()
		}), false)
		put("ckpt_mb", "MB", collect(its, func(it *iteration) float64 { return it.ckptBytes / 1e6 }), false)
	}
	put("peak_rss_mb", "MB", collect(its, func(it *iteration) float64 { return it.peakRSS }), true)
	r.add("error_rate", ratio(float64(b.failed), float64(b.attempted)), "ratio",
		fmt.Sprintf("%d of %d failed", b.failed, b.attempted))
	if g := its[0].geomean; g > 0 {
		r.lines = append(r.lines, accuracyLine(g))
	}
	return r
}

// perLayer reports every per-layer metric; a layer the workload does not
// call reads 0.
func (b *bench) perLayer(plain, its []*iteration, shares map[string]float64, rt rtDelta) *report {
	r := b.header(append(plain, its...), fmt.Sprintf("traced (%d untraced iterations first)", len(plain)))
	put := func(name, unit string, v float64) {
		r.add(name, v, unit, "")
		r.final[name] = value{v, unit}
	}
	for _, name := range spanMetrics {
		put(name, "s", median(collect(its, func(it *iteration) float64 { return it.self[name].Seconds() })))
	}
	for _, m := range countMetrics {
		put(m.name, m.unit, median(collect(its, func(it *iteration) float64 { return it.counts[m.name] })))
	}
	for i, v := range []float64{rt.allocMB, rt.gcCPUs, rt.schedP50us} {
		put(runtimeMetrics[i].name, runtimeMetrics[i].unit, v)
	}
	for _, name := range cpuBuckets {
		put(name, "share", shares[name])
	}
	put("trace_overhead", "ratio", median(collect(its, (*iteration).wall))/median(collect(plain, (*iteration).wall)))
	return r
}

// resetPeakRSS starts a new peak-RSS interval. Where the kernel does not
// support that, peakRSSMB reports the peak of the whole process so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the peak resident set size since resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(status), "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
