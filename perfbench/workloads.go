package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hmtx/internal/check"
	"hmtx/internal/ckpt"
	"hmtx/internal/engine"
	"hmtx/internal/experiments"
	"hmtx/internal/hmtx"
	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/paradigm"
	"hmtx/internal/power"
	"hmtx/internal/prof"
	"hmtx/internal/smtx"
	"hmtx/internal/workloads"
)

// workload is one set of inputs the benchmark runs; iterate runs it once.
type workload struct {
	name, why string
	iterate   func(*bench)
}

var allWorkloads = []workload{
	{"suite", "the paper's evaluation as users run it; short simulations stress set-up and the goroutine handoff", suite},
	{"wide255", "one 255-core HMTX run; set-up is negligible and the engine scheduler dominates", wide},
	{"observe", "all four instruments attached and a checkpoint save/resume; whole-cache walks, not per-access paths", observe},
	{"check", "the model checker at the CI bound, capped; allocation-bound with no engine", checkWorkload},
}

func lookup(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range allWorkloads {
		ns = append(ns, w.name)
	}
	return ns
}

// params sizes the workloads; tests use smaller ones.
type params struct {
	suiteScale   int
	wideScale    int
	observeScale int
	check        checkBound
}

// checkBound is the checker configuration's state cap and the counts the
// capped search must reproduce. The checker does not use the seed, so they
// do not depend on it.
type checkBound struct{ maxStates, states, edges int }

var defaultParams = params{
	suiteScale:   1,
	wideScale:    10,
	observeScale: 1,
	check:        checkBound{maxStates: 20000, states: 20001, edges: 232102},
}

const (
	evalCores    = 4    // the paper's machine
	wideCores    = 255  // the memory system's limit
	window       = 1024 // observe's time-series window, in simulated cycles
	ckptEvery    = 5    // iterations per segment of the observe run
	paperGeomean = 1.99 // the paper's Figure 8 HMTX speedup, Geomean (All)
)

// suiteDigest is the SHA-256 of the hmtx-bench/v1 document that
// `experiments -json` writes at its defaults, which equal seed 1 at scale 1.
const suiteDigest = "2ba00531aed61a00b54cf70b7280a07f1df0fc71fab8f3ebb1f124bd7857cc85"

// engineConfig is the evaluation machine with the workload seed and the
// serial reference scheduler.
func (b *bench) engineConfig(cores int) engine.Config {
	ec := engine.DefaultConfig()
	ec.Mem.Cores = cores
	ec.Seed = b.seed
	ec.Domains = 1
	return ec
}

// newSim builds a machine and sets the loop up in its memory.
func (b *bench) newSim(ec engine.Config, spec workloads.Spec, scale int) (*engine.System, paradigm.Loop) {
	var sys *engine.System
	b.span("engine.new_s", func() { sys = engine.New(ec) })
	var loop paradigm.Loop
	b.span("workloads.setup_s", func() {
		loop = spec.New(scale)
		loop.Setup(sys.Mem)
	})
	return sys, loop
}

// image is a committed memory image: every line a hierarchy knows, by
// address, as words.
type image map[memsys.Addr][memsys.LineSize / 8]uint64

// finish adds a finished simulation's counts to the iteration and returns
// its committed memory image. It runs aside from the workload.
func (b *bench) finish(sys *engine.System, cycles int64) image {
	var img image
	b.aside(func() {
		es, ms := sys.Stats(), sys.Mem.Stats()
		c := b.it.counts
		c["engine.instructions"] += float64(es.Instructions)
		c["engine.sim_cycles"] += float64(cycles)
		c["engine.txs"] += float64(es.Txs)
		c["engine.aborts"] += float64(es.AbortsConflict + es.AbortsOverflow + es.AbortsSLA + es.AbortsExplicit + es.AbortsOther)
		c["memsys.l1_hits"] += float64(ms.L1Hits)
		c["memsys.bus_messages"] += float64(ms.BusMessages)
		c["memsys.versions_created"] += float64(ms.VersionsCreated)
		img = imageOf(sys.Mem)
		c["memsys.touched_lines"] += float64(len(img))
	})
	return img
}

func imageOf(h *memsys.Hierarchy) image {
	img := image{}
	for _, a := range h.Addrs() {
		var ws [memsys.LineSize / 8]uint64
		for i := range ws {
			ws[i] = h.PeekWord(a + memsys.Addr(8*i))
		}
		img[a] = ws
	}
	return img
}

// sameAs reports how a speculative run's committed memory differs from the
// sequential run's. A line one image lacks reads as zeros, as in memory.
func (b *bench) sameAs(ref, got image) error {
	if ref == nil {
		return fmt.Errorf("no sequential image to compare with")
	}
	var err error
	b.aside(func() {
		diff, first := 0, memsys.Addr(0)
		cmp := func(a memsys.Addr) {
			r, g := ref[a], got[a]
			for i := range r {
				if r[i] != g[i] {
					if diff == 0 || a < first {
						first = a
					}
					diff++
				}
			}
		}
		for a := range ref {
			cmp(a)
		}
		for a := range got {
			if _, ok := ref[a]; !ok {
				cmp(a)
			}
		}
		if diff > 0 {
			err = fmt.Errorf("committed memory differs from the sequential run in %d words (first line %#x)", diff, first)
		}
	})
	return err
}

// activity mirrors the power-model inputs the experiments package records
// for Table 3.
func activity(cycles int64, sys *engine.System) power.Activity {
	eng, mem := sys.Stats(), sys.Mem.Stats()
	return power.Activity{
		Cycles:       cycles,
		Instructions: eng.Instructions,
		L1Accesses:   mem.L1Hits + mem.BusMessages,
		L2Accesses:   mem.L2Hits + mem.MemReads,
		MemAccesses:  mem.MemReads + mem.MemWrites,
		BusMessages:  mem.BusMessages,
	}
}

// suite runs the paper's evaluation — every kernel sequentially, under HMTX
// and, where the paper has it, under SMTX with minimal and maximal sets — and
// renders the hmtx-bench/v1 document and every table and figure that reads
// the results.
func suite(b *bench) {
	cfg := experiments.Config{Scale: b.p.suiteScale, Cores: evalCores, Parallelism: 1, Domains: 1}
	ec := b.engineConfig(evalCores)
	specs := workloads.All()
	results := make([]experiments.BenchResult, len(specs))
	for i, spec := range specs {
		r := &results[i]
		r.Spec = spec
		var ref image
		b.attempt(spec.Name+"/seq", func() error {
			sys, loop := b.newSim(ec, spec, cfg.Scale)
			b.span("paradigm.seq_run_s", func() { r.SeqCycles = paradigm.RunSequential(sys, loop) })
			r.SeqAct = activity(r.SeqCycles, sys)
			ref = b.finish(sys, r.SeqCycles)
			return nil
		})
		b.attempt(spec.Name+"/hmtx", func() error {
			sys, loop := b.newSim(ec, spec, cfg.Scale)
			b.span("hmtx.run_s", func() { r.HMTXOut = hmtx.Run(sys, loop, spec.Paradigm, cfg.Cores) })
			r.HMTXEng, r.HMTXMem = *sys.Stats(), *sys.Mem.Stats()
			r.HMTXAct = activity(r.HMTXOut.Cycles, sys)
			return b.sameAs(ref, b.finish(sys, r.HMTXOut.Cycles))
		})
		if !spec.HasSMTX {
			continue
		}
		for _, mode := range []smtx.Mode{smtx.MinSet, smtx.MaxSet} {
			out, act := &r.SMTXMinOut, &r.SMTXMinAct
			if mode == smtx.MaxSet {
				out, act = &r.SMTXMaxOut, &r.SMTXMaxAct
			}
			b.attempt(fmt.Sprintf("%s/smtx-%v", spec.Name, mode), func() error {
				sys, loop := b.newSim(ec, spec, cfg.Scale)
				b.span("smtx.run_s", func() {
					*out = smtx.Run(sys, loop, spec.Paradigm, cfg.Cores, mode, smtx.DefaultConfig())
				})
				*act = activity(out.Cycles, sys)
				return b.sameAs(ref, b.finish(sys, out.Cycles))
			})
		}
	}
	b.attempt("hmtx-bench/v1 document", func() error {
		var doc bytes.Buffer
		var tables []string
		var err error
		b.span("experiments.doc_s", func() {
			d := experiments.BuildDoc(cfg, results)
			b.it.geomean = d.GeomeanHMTX
			err = experiments.WriteJSON(&doc, d)
			tables = []string{
				experiments.Table2(cfg), experiments.Table1(results), experiments.Fig2(results),
				experiments.Fig8(results), experiments.Fig9(results), experiments.Table3(cfg, results),
			}
		})
		if err != nil {
			return err
		}
		for _, t := range tables {
			if t == "" {
				return fmt.Errorf("a table rendered empty")
			}
		}
		if b.seed != 1 || cfg.Scale != 1 {
			return nil
		}
		if sum := sha256.Sum256(doc.Bytes()); hex.EncodeToString(sum[:]) != suiteDigest {
			return fmt.Errorf("seed-1 document digest %x differs from %s", sum, suiteDigest)
		}
		return nil
	})
}

// accuracyLine sets the simulated geomean speedup beside the paper's.
func accuracyLine(geomean float64) string {
	return fmt.Sprintf("  accuracy: geomean HMTX hot-loop speedup %.2fx vs the paper's %.2fx (Figure 8, All): %+.1f%%."+
		" This is the only reference result; the model is otherwise unvalidated against hardware.",
		geomean, paperGeomean, (geomean/paperGeomean-1)*100)
}

// wide runs 052.alvinn under HMTX on 255 cores.
func wide(b *bench) {
	spec := specNamed("052.alvinn")
	ec := b.engineConfig(wideCores)
	ref := b.reference(ec, spec, b.p.wideScale)
	b.attempt(spec.Name+"/hmtx-255", func() error {
		sys, loop := b.newSim(ec, spec, b.p.wideScale)
		var out hmtx.Outcome
		b.span("hmtx.run_s", func() { out = hmtx.Run(sys, loop, spec.Paradigm, wideCores) })
		return b.sameAs(ref, b.finish(sys, out.Cycles))
	})
}

// reference returns the committed memory image of the loop's sequential
// run, which a speculative run must reproduce. Outside the suite, where it
// is part of the evaluation, the sequential run only serves the output
// check: it runs aside from the workload, once per process.
func (b *bench) reference(ec engine.Config, spec workloads.Spec, scale int) image {
	if b.ref != nil {
		return b.ref
	}
	b.attempt(spec.Name+"/seq reference", func() error {
		b.aside(func() {
			sys := engine.New(ec)
			loop := spec.New(scale)
			loop.Setup(sys.Mem)
			paradigm.RunSequential(sys, loop)
			b.ref = imageOf(sys.Mem)
		})
		return nil
	})
	return b.ref
}

// observe runs 197.parser under HMTX with every instrument attached,
// segmented, halts it halfway at a checkpoint written to disk, reads it back,
// restores it and finishes the run.
func observe(b *bench) {
	spec := specNamed("197.parser")
	ec := b.engineConfig(evalCores)
	scale := b.p.observeScale
	path := filepath.Join(b.dir, "observe.ckpt.json")
	defer os.Remove(path)

	ref := b.reference(ec, spec, scale)
	saved := false
	b.attempt(spec.Name+"/hmtx until the checkpoint", func() error {
		sys, loop := b.newSim(ec, spec, scale)
		sys.SetProf(prof.New())
		sys.SetSeries(metrics.NewSampler(window))
		sys.SetConflicts(metrics.NewRecorder(0))
		sys.SetLatHists(metrics.NewLatHists())
		half := loop.Iters() / 2
		var err error
		opts := hmtx.Options{Every: ckptEvery}
		opts.Checkpoint = func(next int, sofar hmtx.Outcome) bool {
			if next < half {
				return false
			}
			var doc *ckpt.Doc
			b.span("ckpt.capture_s", func() {
				doc = ckpt.CaptureRun(sys, ckpt.RunState{
					Bench: spec.Name, System: "hmtx", Paradigm: spec.Paradigm.String(),
					Cores: evalCores, Scale: scale, Every: ckptEvery,
					EngineCfg: ec, NextIt: next, Partial: sofar,
				})
			})
			b.span("ckpt.write_s", func() { err = ckpt.WriteFile(path, doc) })
			saved = err == nil
			return true
		}
		b.span("hmtx.run_s", func() { hmtx.RunOpts(sys, loop, spec.Paradigm, evalCores, opts) })
		if err != nil {
			return err
		}
		if !saved {
			return fmt.Errorf("the run ended before iteration %d, so nothing was checkpointed", half)
		}
		b.aside(func() {
			st, serr := os.Stat(path)
			if serr != nil {
				err = serr
				return
			}
			b.it.ckptBytes = float64(st.Size())
			b.it.ckptLines = float64(len(sys.Mem.Addrs()))
		})
		return err
	})
	if !saved {
		return
	}

	b.attempt(spec.Name+"/hmtx resumed from the checkpoint", func() error {
		var doc *ckpt.Doc
		var sys *engine.System
		var err error
		b.span("ckpt.read_s", func() { doc, err = ckpt.ReadFile(path) })
		if err != nil {
			return err
		}
		b.span("ckpt.restore_s", func() { sys, err = ckpt.RestoreRun(doc) })
		if err != nil {
			return err
		}
		rs := doc.Run
		var out hmtx.Outcome
		b.span("hmtx.run_s", func() {
			out = hmtx.RunOpts(sys, spec.New(scale), spec.Paradigm, evalCores,
				hmtx.Options{Every: rs.Every, Partial: rs.Partial})
		})
		label := spec.Name + "/hmtx"
		b.span("prof.snapshot_s", func() { sys.Prof().Snapshot(spec.Name, "hmtx", spec.Paradigm.String(), 0) })
		b.span("metrics.flush_s", func() {
			sys.FlushSeries()
			sys.Series().Snapshot(label)
			sys.Conflicts().Snapshot(label)
			sys.LatHists().Snapshot(label)
		})
		b.it.counts["metrics.series_samples"] += float64(sys.Series().Rows())
		if out.Iterations <= rs.NextIt {
			return fmt.Errorf("the resumed run stopped at iteration %d, not past the checkpoint at %d", out.Iterations, rs.NextIt)
		}
		return b.sameAs(ref, b.finish(sys, out.Cycles))
	})
}

func specNamed(name string) workloads.Spec {
	s, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// checkConfig is the CI bound (-cores 2 -addrs 1 -vids 1 -evict
// -wrongpath), capped at the bound's state limit.
func (b *bench) checkConfig() check.Config {
	return check.Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true, WrongPath: true, MaxStates: b.p.check.maxStates}
}

// checkSetupReps is how many searches capped at one state an iteration of
// the check workload times for setup_s. One takes a few microseconds, too
// short to time once.
const checkSetupReps = 101

// checkSetup times searches capped at one state — everything check.Run does
// before it explores — as the checker's set-up, which has no simulation.
// They run aside from the workload.
func (b *bench) checkSetup(cfg check.Config) error {
	cfg.MaxStates = 1
	var err error
	b.aside(func() {
		for i := 0; i < checkSetupReps && err == nil; i++ {
			start := time.Now()
			_, err = check.Run(cfg)
			b.it.setups = append(b.it.setups, time.Since(start).Seconds())
		}
	})
	return err
}

// checkWorkload runs the model checker at the CI bound, capped, and checks
// the counts it must reproduce. Its set-up repetitions belong to the same
// attempt.
func checkWorkload(b *bench) {
	cb, cfg := b.p.check, b.checkConfig()
	b.attempt("check", func() error {
		if err := b.checkSetup(cfg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		var sum *check.Summary
		var err error
		b.span("check.run_s", func() { sum, err = check.Run(cfg) })
		if err != nil {
			return err
		}
		c := b.it.counts
		c["check.states"] += float64(sum.States)
		c["check.edges"] += float64(sum.Edges)
		switch {
		case !sum.OK():
			return fmt.Errorf("violation: %s", sum.Text())
		case sum.Exhausted || !sum.Truncated:
			return fmt.Errorf("the search was not stopped by the cap of %d states", cfg.MaxStates)
		case sum.States != cb.states || sum.Edges != cb.edges:
			return fmt.Errorf("%d states and %d edges, recorded %d and %d", sum.States, sum.Edges, cb.states, cb.edges)
		}
		return nil
	})
}
