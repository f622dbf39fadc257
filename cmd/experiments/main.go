// Command experiments regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated 4-core HMTX machine.
//
// Usage:
//
//	experiments [-scale N] [-cores N] [-parallel N] [-domains N]
//	            [-only fig8,table1,...]
//	            [-ablations] [-json BENCH_run.json] [-prof PROF_run.json]
//	            [-series SERIES_run.json] [-series-window N]
//	            [-conflicts CONFLICTS_run.json] [-hist HIST_run.json]
//	            [-ckpt-every N] [-ckpt-out ckpt.json] [-ckpt-halt]
//	            [-resume ckpt.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With no -only list it runs everything: Figure 1, Figure 2, Table 1,
// Table 2, Figure 8, Figure 9 and Table 3, plus the design-choice ablations
// when -ablations is set. -json additionally writes the raw measurements as
// a deterministic "hmtx-bench/v1" document (see EXPERIMENTS.md for how to
// diff two of them); -prof attaches the cycle-attribution profiler to every
// simulation and writes the suite's profiles as an "hmtx-prof/v1" document
// (inspect or diff them with cmd/hmtxprof). -series, -conflicts and -hist
// attach the DESIGN.md §15 metric instruments to every simulation and write
// the suite's time-series ("hmtx-series/v1"), conflict-graph
// ("hmtx-conflicts/v1") and latency-histogram ("hmtx-hist/v1") documents,
// which cmd/hmtxreport turns into an HTML report. All documents are
// byte-identical at every -parallel and -domains setting: -parallel runs
// whole simulations concurrently, while -domains shards the cores of each
// simulation across goroutines inside conservative time quanta
// (DESIGN.md §16).
//
// Checkpointing (DESIGN.md §18): with -parallel 1, -ckpt-every N writes an
// hmtx-ckpt/v2 suite checkpoint to -ckpt-out after every N completed
// (benchmark, mode) units; -ckpt-halt stops the suite at the first
// checkpoint, and -resume continues it, re-running only the remaining units.
// Because every unit owns its own simulated machine, a resumed suite's
// documents are byte-identical to an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hmtx/internal/ckpt"
	"hmtx/internal/experiments"
	"hmtx/internal/prof"
	"hmtx/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	scale := flag.Int("scale", 1, "iteration-count multiplier for every benchmark")
	cores := flag.Int("cores", 4, "number of simulated cores")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	domains := flag.Int("domains", 1, "intra-simulation parallel domains (1 = serial engine scheduler; results are byte-identical at any setting)")
	only := flag.String("only", "", "comma-separated subset: fig1,fig2,fig8,fig9,table1,table2,table3")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	quiet := flag.Bool("q", false, "suppress progress output")
	jsonOut := flag.String("json", "", "write the raw measurements as deterministic JSON to this file")
	profOut := flag.String("prof", "", "profile every simulation and write the hmtx-prof/v1 document to this file")
	seriesOut := flag.String("series", "", "sample every simulation and write the hmtx-series/v1 document to this file")
	seriesWindow := flag.Int64("series-window", 0, "time-series sampling window in simulated cycles (0 = default)")
	conflictsOut := flag.String("conflicts", "", "record abort edges and write the hmtx-conflicts/v1 document to this file")
	histOut := flag.String("hist", "", "collect latency histograms and write the hmtx-hist/v1 document to this file")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint after every N completed (benchmark, mode) units (0 = off; requires -parallel 1)")
	ckptOut := flag.String("ckpt-out", "", "write an hmtx-ckpt/v2 suite checkpoint to this file at each checkpoint")
	ckptHalt := flag.Bool("ckpt-halt", false, "halt the suite at the first checkpoint (after writing -ckpt-out)")
	resume := flag.String("resume", "", "resume a halted suite from an hmtx-ckpt/v2 checkpoint file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	metricsOn := *seriesOut != "" || *conflictsOut != "" || *histOut != ""
	cfg := experiments.Config{
		Scale: *scale, Cores: *cores, Parallelism: *parallel,
		Profile: *profOut != "",
		Metrics: metricsOn, MetricsWindow: *seriesWindow,
		Domains: *domains,
	}
	if err := cfg.Validate(); err != nil {
		// A bad flag is a usage error: one line and exit status 2, as the
		// flag package reports unknown flags.
		log.Print(err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}
	pick := func(k string) bool { return len(want) == 0 || want[k] }

	if pick("table2") {
		fmt.Println(experiments.Table2(cfg))
	}
	if pick("fig1") {
		fmt.Println(experiments.Fig1(*cores))
	}

	needSuite := *jsonOut != "" || *profOut != "" || metricsOn ||
		pick("fig2") || pick("fig8") || pick("fig9") || pick("table1") || pick("table3")
	if needSuite {
		var progress io.Writer = os.Stderr
		if *quiet {
			progress = nil
		}
		var results []experiments.BenchResult
		ckptOn := *ckptEvery > 0 || *ckptOut != "" || *ckptHalt || *resume != ""
		if ckptOn {
			// Suite checkpoints cut at (benchmark, mode) unit boundaries,
			// which requires the serial unit order.
			if cfg.Parallelism != 1 {
				log.Fatal("checkpointing requires -parallel 1")
			}
			if (*ckptOut != "" || *ckptHalt) && *ckptEvery <= 0 {
				log.Fatal("-ckpt-out and -ckpt-halt need -ckpt-every")
			}
			opts := experiments.CkptOptions{Every: *ckptEvery}
			if *resume != "" {
				doc, err := ckpt.ReadFile(*resume)
				if err != nil {
					log.Fatal(err)
				}
				if doc.Kind != ckpt.KindExperiments {
					log.Fatalf("%s is a %q checkpoint; experiments resumes %q checkpoints (hmtxsim -resume handles runs, hmtxdbg opens counterexamples)",
						*resume, doc.Kind, ckpt.KindExperiments)
				}
				if doc.Experiments.Config != cfg {
					log.Fatalf("checkpoint was taken under -scale %d -cores %d -domains %d and the matching instrument flags; rerun with the same configuration",
						doc.Experiments.Config.Scale, doc.Experiments.Config.Cores, doc.Experiments.Config.Domains)
				}
				st := doc.Experiments.State
				opts.Resume = &st
			}
			var unitsDone int
			if *ckptOut != "" || *ckptHalt {
				opts.Checkpoint = func(st experiments.CkptState) bool {
					if *ckptOut != "" {
						doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindExperiments,
							Experiments: &ckpt.ExperimentsState{Config: cfg, State: st}}
						if err := ckpt.WriteFile(*ckptOut, doc); err != nil {
							log.Fatal(err)
						}
					}
					unitsDone = len(st.Done)
					return *ckptHalt
				}
			}
			var halted bool
			var err error
			results, halted, err = experiments.RunSpecsCkpt(cfg, workloads.All(), progress, opts)
			if err != nil {
				log.Fatal(err)
			}
			if halted {
				where := ""
				if *ckptOut != "" {
					where = " -> " + *ckptOut
				}
				fmt.Printf("checkpoint: suite halted after %d units%s (continue with -resume)\n", unitsDone, where)
				return
			}
		} else {
			results = experiments.RunAll(cfg, progress)
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := experiments.WriteJSON(f, experiments.BuildDoc(cfg, results)); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if *profOut != "" {
			f, err := os.Create(*profOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := prof.WriteDoc(f, experiments.BuildProfDoc(cfg, results)); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		writeDoc := func(path string, doc any) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := experiments.WriteAnyJSON(f, doc); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if *seriesOut != "" {
			writeDoc(*seriesOut, experiments.BuildSeriesDoc(cfg, results))
		}
		if *conflictsOut != "" {
			writeDoc(*conflictsOut, experiments.BuildConflictDoc(cfg, results))
		}
		if *histOut != "" {
			writeDoc(*histOut, experiments.BuildHistDoc(cfg, results))
		}
		if pick("table1") {
			fmt.Println(experiments.Table1(results))
		}
		if pick("fig2") {
			fmt.Println(experiments.Fig2(results))
		}
		if pick("fig8") {
			fmt.Println(experiments.Fig8(results))
		}
		if pick("fig9") {
			fmt.Println(experiments.Fig9(results))
		}
		if pick("table3") {
			fmt.Println(experiments.Table3(cfg, results))
		}
	}

	if *ablations {
		fmt.Println(experiments.AblationSLA(cfg))
		fmt.Println(experiments.AblationVIDWidth(cfg))
		fmt.Println(experiments.AblationLazyCommit(cfg))
		fmt.Println(experiments.AblationScaling(cfg))
		fmt.Println(experiments.Paradigms(cfg))
	}
}
