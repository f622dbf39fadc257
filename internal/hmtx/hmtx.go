// Package hmtx is the software runtime for hardware multithreaded
// transactions: it structures speculative parallel loops over the engine's
// beginMTX/commitMTX/abortMTX primitives (§3), assigns program-ordered
// transaction sequence numbers, enforces in-order group commit, and recovers
// from misspeculation by rolling forward from the last committed
// transaction — the software half of the contract described in §4.7.
//
// Every paradigm of Figure 1 is provided: DOALL, DOACROSS, DSWP and
// PS-DSWP, all driven from the same paradigm.Loop decomposition.
package hmtx

import (
	"fmt"
	"sync/atomic"

	"hmtx/internal/engine"
	"hmtx/internal/paradigm"
	"hmtx/internal/vid"
)

// qVIDs is the queue carrying transaction VIDs from stage 1 to stage 2
// (produceVID/consumeVID in Figure 3).
const qVIDs = 1

// qTokBase is the base id of the DOACROSS recurrence-token queues.
const qTokBase = 100

// Outcome summarises a parallel loop execution, including any recovery
// re-executions after misspeculation.
type Outcome struct {
	// Cycles is total simulated time across the initial run and every
	// recovery run.
	Cycles int64
	// Iterations is the number of loop iterations that committed.
	Iterations int
	// Aborts counts misspeculation aborts (including the intentional
	// squash of over-speculated iterations on an early loop exit).
	Aborts int
	// Runs counts engine runs (1 + recovery runs).
	Runs int
	// ExitedEarly reports that Stage2 terminated the loop before Iters().
	ExitedEarly bool
}

// Options controls segmented execution for checkpointing (hmtx-ckpt/v2,
// DESIGN.md §18). The zero value runs the loop to completion in one sweep,
// exactly as Run always has.
type Options struct {
	// Every, when positive, segments the run: the pipeline executes at most
	// Every iterations per engine run, returning to the driver — with the
	// engine fully quiescent (no program goroutines, queues drained by
	// reset) — at each boundary. Segmentation changes pipeline fill/drain
	// timing, so outcomes are comparable only between runs using the same
	// Every; byte-identity of a resumed run is against the checkpointed
	// run, not against an unsegmented one.
	Every int
	// Partial seeds the outcome accumulators when resuming from a
	// checkpoint: the restored engine already knows the committed frontier,
	// but cycles/aborts/runs of the pre-checkpoint half live here.
	Partial Outcome
	// Checkpoint, when non-nil, is called at every segment boundary with
	// the next iteration to execute and the outcome so far. Returning true
	// halts the run at the boundary; the returned Outcome is then partial
	// (Iterations holds the committed frontier).
	Checkpoint func(nextIt int, sofar Outcome) (halt bool)
}

// Run executes the loop speculatively under the given paradigm using the
// given number of cores and returns the outcome. The system must be fresh
// (no transactions committed yet); Setup must already have populated
// simulated memory.
//
// If the region misspeculates, all uncommitted transactions roll back in the
// memory system; Run then re-executes the first uncommitted iteration in a
// lone transaction (the recovery code of initMTX, §3.1) and restarts the
// pipeline after it.
func Run(sys *engine.System, loop paradigm.Loop, kind paradigm.Kind, cores int) Outcome {
	return RunOpts(sys, loop, kind, cores, Options{})
}

// RunOpts is Run with segmented-execution options. With a restored system
// (engine + memory state from a checkpoint) and opts.Partial from the same
// checkpoint, the continued run is byte-identical to the checkpointed run
// left uninterrupted: the engine's committed frontier tells the driver where
// to resume, and the paradigm contract (all mutable loop state lives in
// simulated memory) guarantees the loop needs no host-side re-setup.
func RunOpts(sys *engine.System, loop paradigm.Loop, kind paradigm.Kind, cores int, opts Options) Outcome {
	if kind == paradigm.Sequential {
		if opts.Every > 0 {
			panic("hmtx: segmented execution needs a parallel paradigm")
		}
		cyc := paradigm.RunSequential(sys, loop)
		return Outcome{Cycles: cyc, Iterations: loop.Iters(), Runs: 1}
	}
	if cores < 2 {
		panic("hmtx: parallel paradigms need at least 2 cores")
	}
	d := &driver{sys: sys, loop: loop, kind: kind, cores: cores, opts: opts}
	return d.run()
}

type driver struct {
	sys   *engine.System
	loop  paradigm.Loop
	kind  paradigm.Kind
	cores int
	opts  Options

	exitSeq atomic.Int64
	// stopped records that a pipeline program ended the loop for a
	// data-dependent reason (Stage1 returned false) rather than by reaching
	// its segment's iteration limit. Without it a segment boundary would be
	// indistinguishable from the loop deciding to stop, and the next
	// segment would wrongly run more iterations.
	stopped atomic.Bool
}

func (d *driver) run() Outcome {
	out := d.opts.Partial
	for {
		startIt := int(d.sys.LastCommitted())
		endIt := d.loop.Iters()
		if d.opts.Every > 0 && startIt+d.opts.Every < endIt {
			endIt = startIt + d.opts.Every
		}
		if d.runSegment(startIt, endIt, &out) {
			return out
		}
		if d.opts.Checkpoint != nil {
			if halt := d.opts.Checkpoint(int(d.sys.LastCommitted()), out); halt {
				return out
			}
		}
	}
}

// runSegment executes iterations [startIt, endIt) including any abort
// recovery, and reports whether the loop as a whole is done (as opposed to
// having merely reached the segment boundary).
func (d *driver) runSegment(startIt, endIt int, out *Outcome) bool {
	for {
		d.exitSeq.Store(0)
		d.stopped.Store(false)
		res := d.sys.Run(d.programs(startIt, endIt))
		out.Cycles += res.Cycles
		out.Runs++
		if !res.Aborted {
			out.Iterations = int(res.LastCommitted)
			return d.stopped.Load() || int(res.LastCommitted) >= d.loop.Iters()
		}
		out.Aborts++
		if exit := d.exitSeq.Load(); exit != 0 && vid.Seq(exit) == res.LastCommitted {
			// The abort was the intentional squash of iterations
			// speculated past an early loop exit (Figure 3's
			// abortMTX(vid+1)); the loop is done.
			out.ExitedEarly = true
			out.Iterations = int(res.LastCommitted)
			return true
		}
		// Genuine misspeculation: re-execute the first uncommitted
		// iteration alone, then resume the pipeline after it.
		it := int(res.LastCommitted)
		if it >= d.loop.Iters() {
			out.Iterations = it
			return true
		}
		var cont, exit bool
		res2 := d.sys.Run([]engine.Program{func(e *engine.Env) {
			seq := vid.Seq(it + 1)
			e.Begin(seq)
			cont = d.loop.Stage1(e, it)
			exit = d.loop.Stage2(e, it)
			e.Commit(seq)
		}})
		out.Cycles += res2.Cycles
		out.Runs++
		if res2.Aborted {
			panic(fmt.Sprintf("hmtx: lone recovery transaction aborted: %s", res2.Cause))
		}
		if exit || !cont || it+1 >= d.loop.Iters() {
			out.Iterations = it + 1
			out.ExitedEarly = exit
			return true
		}
		startIt = it + 1
		if startIt >= endIt {
			// Recovery carried the committed frontier to (or past) the
			// segment boundary; stop here so the checkpoint cadence holds.
			out.Iterations = startIt
			return false
		}
	}
}

func (d *driver) programs(startIt, endIt int) []engine.Program {
	switch d.kind {
	case paradigm.DSWP:
		return []engine.Program{d.stage1Prog(startIt, endIt), d.stage2Prog()}
	case paradigm.PSDSWP:
		progs := []engine.Program{d.stage1Prog(startIt, endIt)}
		for w := 1; w < d.cores; w++ {
			progs = append(progs, d.stage2Prog())
		}
		return progs
	case paradigm.DOALL:
		var progs []engine.Program
		for w := 0; w < d.cores; w++ {
			progs = append(progs, d.doallProg(startIt, endIt, w))
		}
		return progs
	case paradigm.DOACROSS:
		var progs []engine.Program
		for w := 0; w < d.cores; w++ {
			progs = append(progs, d.doacrossProg(startIt, endIt, w))
		}
		return progs
	default:
		panic(fmt.Sprintf("hmtx: unsupported paradigm %v", d.kind))
	}
}

// stage1Prog is the sequential pipeline stage: it walks the loop-carried
// recurrence transaction by transaction, publishing each iteration's input
// through versioned memory and its VID through the queue (Figure 3(b)).
func (d *driver) stage1Prog(startIt, endIt int) engine.Program {
	return func(e *engine.Env) {
		for it := startIt; it < endIt; it++ {
			seq := vid.Seq(it + 1)
			e.Begin(seq) // may stall for a VID reset (§4.6)
			cont := d.loop.Stage1(e, it)
			e.Begin(0) // done with this transaction, but do not commit
			e.Produce(qVIDs, uint64(seq))
			if !cont {
				d.stopped.Store(true)
				break
			}
		}
		e.CloseQueue(qVIDs)
	}
}

// stage2Prog is a work-stage thread (Figure 3(c)); PS-DSWP runs several.
func (d *driver) stage2Prog() engine.Program {
	return func(e *engine.Env) {
		for {
			v, ok := e.Consume(qVIDs)
			if !ok {
				return
			}
			seq := vid.Seq(v)
			it := int(seq) - 1
			e.Begin(seq) // continue the transaction stage 1 started
			exit := d.loop.Stage2(e, it)
			e.Commit(seq)
			if exit {
				// The loop exit was control-flow speculated away;
				// squash the iterations that over-speculated.
				d.exitSeq.Store(int64(seq))
				e.Abort(seq + 1)
			}
		}
	}
}

func (d *driver) doallProg(startIt, endIt, w int) engine.Program {
	return func(e *engine.Env) {
		for it := startIt + w; it < endIt; it += d.cores {
			seq := vid.Seq(it + 1)
			e.Begin(seq)
			d.loop.Stage1(e, it)
			exit := d.loop.Stage2(e, it)
			e.Commit(seq)
			if exit {
				d.exitSeq.Store(int64(seq))
				e.Abort(seq + 1)
			}
		}
	}
}

func (d *driver) doacrossProg(startIt, endIt, w int) engine.Program {
	qOf := func(worker int) int { return qTokBase + worker }
	return func(e *engine.Env) {
		for it := startIt + w; it < endIt; it += d.cores {
			if it > startIt {
				// Wait for the predecessor iteration's recurrence
				// (the loop-carried dependence, Figure 1(b)).
				tok, ok := e.Consume(qOf(w))
				if !ok {
					return
				}
				if tok == 0 {
					// Stop token: cascade and quit.
					e.Produce(qOf((w+1)%d.cores), 0)
					return
				}
			}
			seq := vid.Seq(it + 1)
			e.Begin(seq)
			cont := d.loop.Stage1(e, it)
			if it+1 < d.loop.Iters() {
				tok := uint64(1)
				if !cont {
					tok = 0
				}
				e.Produce(qOf((w+1)%d.cores), tok)
			}
			exit := d.loop.Stage2(e, it)
			e.Commit(seq)
			if exit {
				d.exitSeq.Store(int64(seq))
				e.Abort(seq + 1)
			}
			if !cont {
				d.stopped.Store(true)
				return
			}
		}
	}
}
