// Command perfbench is the repository's benchmark. It drives the simulator's
// public packages (engine, workloads, paradigm, hmtx, smtx, experiments,
// prof, metrics, ckpt, check) from one process and one driving goroutine,
// runs every simulation on the serial reference scheduler, and measures host
// time, not simulated time.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload suite|wide255|observe|check|all \
//	    --seed N --seconds S --trace 0|1
//
// A run does one unmeasured warm-up iteration, then repeats whole iterations
// of the workload, at least two, for about S seconds and reports medians
// over them. Every iteration checks the program's outputs;
// any failure is counted, printed, and makes the command exit 1. With
// --trace 0 the final JSON line carries the end-to-end metrics; with
// --trace 1 half the time runs untraced and half traced (its own spans, a CPU
// profile bucketed by layer, runtime/metrics deltas), and the final line
// carries the per-layer metrics. The lines above it print every metric by
// name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed, passed to the simulator as engine.Config.Seed")
	seconds := fs.Float64("seconds", 10, "measurement time per workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "directory for checkpoint and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = allWorkloads
	} else if w, ok := lookup(*name); ok {
		ws = []workload{w}
	}
	switch {
	case fs.NArg() > 0 || len(ws) == 0:
		fmt.Fprintf(stderr, "perfbench: need --workload %s or all\n", strings.Join(workloadNames(), "|"))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res := result{Metrics: map[string]value{}}
	for _, w := range ws {
		b := newBench(w, defaultParams, *seed, *dir)
		rep, err := b.measure(time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		rep.print(stdout)
		res.Attempted += b.attempted
		res.Failed += b.failed
		for k, v := range rep.final {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measurement: the lines printed for people and the
// metrics of the final JSON line.
type report struct {
	lines []string
	final map[string]value
}

func (r *report) add(name string, v float64, unit, note string) {
	s := fmt.Sprintf("  %-32s %14.6g %-6s", name, v, unit)
	if note != "" {
		s += "  " + note
	}
	r.lines = append(r.lines, strings.TrimRight(s, " "))
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
