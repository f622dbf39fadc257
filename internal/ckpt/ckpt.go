// Package ckpt implements the versioned hmtx-ckpt/v2 checkpoint format
// (DESIGN.md §18): a byte-deterministic serialization of full simulation
// state that supports exact resume — a run halted at a checkpoint and
// resumed produces byte-identical output documents to the same run left
// uninterrupted — and time-travel inspection via cmd/hmtxdbg.
//
// A checkpoint document has one of three kinds:
//
//   - "run": one hmtxsim-style execution, captured at an iteration-segment
//     boundary of the hmtx driver (engine quiescent). Holds the engine
//     configuration, the exact memory-hierarchy encoding
//     (memsys.AppendExact), the persistent engine state (engine.Ckpt,
//     including the RNG draw position), the partial driver outcome, and the
//     live state of every attached instrument (profiler, time-series
//     sampler, conflict recorder, latency histograms).
//   - "experiments": a partially completed experiment suite, captured
//     between (benchmark, mode) units. Holds the suite configuration, the
//     completed unit keys and the partial results.
//   - "check": a model-checker counterexample (hmtxcheck -emit-ckpt): the
//     checker configuration, the shortest failing stimulus trace and the
//     exact encoding of the final (violating) hierarchy state, openable by
//     hmtxdbg for step-through inspection.
//
// What is NOT checkpointed, by design: goroutine stacks (capture happens
// only at quiescent boundaries, where none are live), paradigm host state
// (the paradigm.Loop contract keeps all mutable loop state in simulated
// memory, so a restored memory image is a restored loop), and the event
// tracer (a resumed run with -trace yields the tail of the trace only, on
// a per-engine-run clock). The obs registry's counters and scalars read
// live engine/memory state and need no capture of their own; its
// histograms record at observation time and are carried in ObsHists, so
// -stats-json is resume-stable alongside bench, prof, series, conflicts
// and hist.
package ckpt

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hmtx/internal/check"
	"hmtx/internal/engine"
	"hmtx/internal/experiments"
	"hmtx/internal/hmtx"
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
)

// Schema is the checkpoint document's schema tag. The version is bumped on
// any incompatible layout change; readers reject unknown schemas rather
// than guessing (compat rule: a vN reader reads vN only). v2 replaced v1's
// dense memory image (every frame of every cache) with the sparse one of
// memsys.AppendExact.
const Schema = "hmtx-ckpt/v2"

// schemaV1 is the retired dense-image schema, refused with a message that
// says what to do instead of a bare mismatch.
const schemaV1 = "hmtx-ckpt/v1"

// The checkpoint kinds.
const (
	KindRun         = "run"
	KindExperiments = "experiments"
	KindCheck       = "check"
)

// Doc is one hmtx-ckpt/v2 document. Exactly one kind section is non-nil,
// matching Kind.
type Doc struct {
	Schema      string            `json:"schema"`
	Kind        string            `json:"kind"`
	Run         *RunState         `json:"run,omitempty"`
	Experiments *ExperimentsState `json:"experiments,omitempty"`
	Check       *CheckState       `json:"check,omitempty"`
}

// RunState is the "run" kind: one benchmark execution captured at an
// iteration-segment boundary.
type RunState struct {
	// Bench through Every identify the run so a resume can verify it is
	// continuing the same experiment it thinks it is.
	Bench    string `json:"bench"`
	System   string `json:"system"`
	Paradigm string `json:"paradigm"`
	Cores    int    `json:"cores"`
	Scale    int    `json:"scale"`
	// Every is the iteration-segment length the run was captured under.
	// Segmentation perturbs pipeline fill/drain timing, so byte-identity
	// holds between runs with equal Every; a resume always continues with
	// the checkpoint's own Every.
	Every int `json:"every"`

	// EngineCfg rebuilds the machine; geometry is additionally validated
	// against the memory image's own header on restore.
	EngineCfg engine.Config `json:"engine_config"`

	// NextIt is the next loop iteration to execute; Partial accumulates
	// the driver outcome of the pre-checkpoint half.
	NextIt  int          `json:"next_it"`
	Partial hmtx.Outcome `json:"partial"`

	// Engine is the persistent engine state; Mem is the exact
	// memory-hierarchy encoding (memsys.AppendExact), hex-encoded.
	Engine engine.Ckpt `json:"engine"`
	Mem    string      `json:"mem"`

	// Instrument state; nil when the corresponding instrument was not
	// attached. A resume must attach exactly the same instruments.
	Prof      *prof.Ckpt            `json:"prof,omitempty"`
	Series    *metrics.SamplerCkpt  `json:"series,omitempty"`
	Conflicts *metrics.RecorderCkpt `json:"conflicts,omitempty"`
	Hists     *metrics.LatHistsCkpt `json:"hists,omitempty"`

	// ObsHists is the statistics-registry histogram state (engine/... and
	// memsys/... keys), present when a registry was attached (-stats or
	// -stats-json). Counters and scalars in the registry read live engine
	// and memory state, so only the histograms carry recording-time state of
	// their own. Restored by RestoreObsHists after the resumed run
	// re-registers; like the instruments, a resume must attach the registry
	// exactly when the checkpoint did.
	ObsHists map[string]obs.HistCkpt `json:"obs_hists,omitempty"`
}

// ExperimentsState is the "experiments" kind: a partially completed suite,
// captured at (benchmark, mode) unit granularity. Unit boundaries do not
// perturb simulated timing — every unit owns its engine — so a resumed
// suite's documents are byte-identical to an uninterrupted run's.
type ExperimentsState struct {
	Config experiments.Config    `json:"config"`
	State  experiments.CkptState `json:"state"`
}

// CheckState is the "check" kind: a model-checker counterexample with the
// exact final hierarchy state, the debugger's entry point for protocol
// violations.
type CheckState struct {
	Config         check.Config          `json:"config"`
	Counterexample *check.Counterexample `json:"counterexample,omitempty"`
	// FinalState is the exact encoding (memsys.AppendExact, hex) of the
	// hierarchy after the last replayed step — for a violation, the state
	// the failing stimulus produced.
	FinalState string `json:"final_state,omitempty"`
}

// CaptureRun completes a run checkpoint: the caller fills the identity and
// driver fields of rs (Bench..Every, NextIt, Partial); CaptureRun adds the
// engine, memory and instrument state from sys. The engine must be
// quiescent (between Run calls).
func CaptureRun(sys *engine.System, rs RunState) *Doc {
	rs.Engine = sys.CaptureCkpt()
	rs.Mem = hex.EncodeToString(sys.Mem.AppendExact(nil))
	if sys.Prof().Enabled() {
		ck := sys.Prof().CaptureCkpt()
		rs.Prof = &ck
	}
	if sys.Series().Enabled() {
		ck := sys.Series().CaptureCkpt()
		rs.Series = &ck
	}
	if sys.Conflicts().Enabled() {
		ck := sys.Conflicts().CaptureCkpt()
		rs.Conflicts = &ck
	}
	if sys.LatHists().Enabled() {
		ck := sys.LatHists().CaptureCkpt()
		rs.Hists = &ck
	}
	oh := map[string]obs.HistCkpt{}
	sys.AddObsHistCkpts("engine/", oh)
	sys.Mem.AddObsHistCkpts("memsys/", oh)
	if len(oh) > 0 {
		rs.ObsHists = oh
	}
	return &Doc{Schema: Schema, Kind: KindRun, Run: &rs}
}

// RestoreObsHists restores the statistics-registry histogram state onto a
// system rebuilt by RestoreRun. It must run after the caller re-registers
// the system (engine Register + memsys Register), because the histograms
// only exist while registered; RestoreRun itself cannot do this — the
// registry belongs to the driver, not the machine.
func RestoreObsHists(sys *engine.System, rs *RunState) error {
	if rs.ObsHists == nil {
		return nil
	}
	if err := sys.RestoreObsHistCkpts("engine/", rs.ObsHists); err != nil {
		return err
	}
	return sys.Mem.RestoreObsHistCkpts("memsys/", rs.ObsHists)
}

// RestoreRun rebuilds a simulation from a run checkpoint: a fresh system
// under the checkpointed configuration, with the same instruments attached
// and every piece of state — memory, engine, instruments — restored. The
// returned system is ready for hmtx.RunOpts with Options{Every:
// doc.Run.Every, Partial: doc.Run.Partial}.
func RestoreRun(doc *Doc) (*engine.System, error) {
	if doc.Kind != KindRun || doc.Run == nil {
		return nil, fmt.Errorf("ckpt: not a run checkpoint (kind %q)", doc.Kind)
	}
	rs := doc.Run
	if err := rs.EngineCfg.Mem.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: checkpoint records an invalid machine: %v", err)
	}
	sys := engine.New(rs.EngineCfg)

	// Instruments first: the sampler's probes must exist before its rows
	// are restored, and SetSeries reads the profiler.
	if rs.Prof != nil {
		p := prof.New()
		if err := p.RestoreCkpt(*rs.Prof); err != nil {
			return nil, err
		}
		sys.SetProf(p)
	}
	if rs.Series != nil {
		sm := metrics.NewSampler(rs.Series.Window)
		sys.SetSeries(sm) // registers the standard probe set
		if err := sm.RestoreCkpt(*rs.Series); err != nil {
			return nil, err
		}
	}
	if rs.Conflicts != nil {
		rec := metrics.NewRecorder(rs.Conflicts.Window)
		if err := rec.RestoreCkpt(*rs.Conflicts); err != nil {
			return nil, err
		}
		sys.SetConflicts(rec)
	}
	if rs.Hists != nil {
		lh := metrics.NewLatHists()
		if err := lh.RestoreCkpt(*rs.Hists); err != nil {
			return nil, err
		}
		sys.SetLatHists(lh)
	}

	if err := sys.RestoreCkpt(rs.Engine); err != nil {
		return nil, err
	}
	enc, err := hex.DecodeString(rs.Mem)
	if err != nil {
		return nil, fmt.Errorf("ckpt: corrupt memory encoding: %v", err)
	}
	if err := sys.Mem.RestoreExact(enc); err != nil {
		return nil, err
	}
	return sys, nil
}

// Write serialises the document as deterministic indented JSON.
func Write(w io.Writer, doc *Doc) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WriteFile writes the document to path.
func WriteFile(path string, doc *Doc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a checkpoint document.
func Read(r io.Reader) (*Doc, error) {
	var doc Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("ckpt: %v", err)
	}
	switch doc.Schema {
	case Schema:
	case schemaV1:
		return nil, fmt.Errorf("ckpt: %s checkpoints are no longer readable (this build reads %s); re-capture the checkpoint with this build", schemaV1, Schema)
	default:
		return nil, fmt.Errorf("ckpt: schema %q is not %q", doc.Schema, Schema)
	}
	switch doc.Kind {
	case KindRun:
		if doc.Run == nil {
			return nil, fmt.Errorf("ckpt: run checkpoint without a run section")
		}
	case KindExperiments:
		if doc.Experiments == nil {
			return nil, fmt.Errorf("ckpt: experiments checkpoint without an experiments section")
		}
	case KindCheck:
		if doc.Check == nil {
			return nil, fmt.Errorf("ckpt: check checkpoint without a check section")
		}
	default:
		return nil, fmt.Errorf("ckpt: unknown checkpoint kind %q", doc.Kind)
	}
	return &doc, nil
}

// ReadFile reads the document at path.
func ReadFile(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
