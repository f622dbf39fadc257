package experiments

import (
	"fmt"
	"io"

	"hmtx/internal/workloads"
)

// Checkpoint support (hmtx-ckpt/v2, DESIGN.md §18) at (benchmark, mode) unit
// granularity. Every unit owns its engine.System and writes a disjoint field
// group of its BenchResult, so a unit boundary is a perfect cut: resuming a
// suite from a checkpoint re-runs only the remaining units and produces
// byte-identical documents to an uninterrupted run — unlike hmtxsim's
// intra-run segmentation, nothing about simulated timing changes.

// CkptState is the serialisable progress of a partially completed suite: the
// completed unit keys ("benchmark/mode", completion order) and the partial
// results in spec order. BenchResult serialises fully except Spec.New (a
// constructor function), which the resume re-derives from the workload
// registry by name.
type CkptState struct {
	Done    []string      `json:"done"`
	Results []BenchResult `json:"results"`
}

// CkptOptions controls unit-granularity checkpointing.
type CkptOptions struct {
	// Every calls Checkpoint after every Every completed units (0 = never).
	Every int
	// Checkpoint receives the progress so far; returning true halts the
	// suite at the unit boundary.
	Checkpoint func(st CkptState) (halt bool)
	// Resume, when non-nil, seeds completed units and their results; only
	// the remaining units run.
	Resume *CkptState
}

// RunSpecsCkpt is RunSpecs with checkpoint support. Checkpointing requires
// the serial unit order, so cfg.Parallelism must be 1. It returns the
// results and whether a Checkpoint callback halted the suite (in which case
// the results are partial).
func RunSpecsCkpt(cfg Config, specs []workloads.Spec, w io.Writer, opts CkptOptions) ([]BenchResult, bool, error) {
	if cfg.Parallelism != 1 {
		return nil, false, fmt.Errorf("experiments: checkpointing requires Parallelism 1, got %d", cfg.Parallelism)
	}
	out := make([]BenchResult, len(specs))
	for i := range out {
		out[i].Spec = specs[i]
	}
	done := make(map[string]bool)
	var doneKeys []string
	if opts.Resume != nil {
		if len(opts.Resume.Results) != len(specs) {
			return nil, false, fmt.Errorf("experiments: checkpoint has %d benchmarks, suite has %d", len(opts.Resume.Results), len(specs))
		}
		for i := range out {
			if got, want := opts.Resume.Results[i].Spec.Name, specs[i].Name; got != want {
				return nil, false, fmt.Errorf("experiments: checkpoint benchmark %d is %q, suite expects %q", i, got, want)
			}
			out[i] = opts.Resume.Results[i]
			out[i].Spec = specs[i] // reattach the live constructor
		}
		doneKeys = append(doneKeys, opts.Resume.Done...)
		for _, k := range doneKeys {
			done[k] = true
		}
	}
	completed := 0
	for _, u := range units(cfg, specs) {
		key := specs[u.idx].Name + "/" + u.mode
		if done[key] {
			continue
		}
		if w != nil {
			fmt.Fprintf(w, "running %-12s %-8s (%v, scale %d)...\n", specs[u.idx].Name, u.mode, specs[u.idx].Paradigm, cfg.Scale)
		}
		u.run(&out[u.idx])
		doneKeys = append(doneKeys, key)
		completed++
		if opts.Every > 0 && completed%opts.Every == 0 && opts.Checkpoint != nil {
			st := CkptState{Done: doneKeys, Results: out}
			if opts.Checkpoint(st) {
				return out, true, nil
			}
		}
	}
	return out, false, nil
}
