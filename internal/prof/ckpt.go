package prof

import "fmt"

// Checkpoint support (hmtx-ckpt/v2, DESIGN.md §18). A collector is
// checkpointed only at run boundaries, after RunEnd has folded the run's
// pending charges: the pend slices are empty, so the serialisable state is
// exactly the folded accumulators plus the first-touch key orders that make
// snapshots deterministic.

// CoreCkpt is one core's folded accounting.
type CoreCkpt struct {
	Buckets []int64 `json:"buckets"`
	Cycles  int64   `json:"cycles"`
}

// LineCkpt is one heatmap entry; the address lives in the surrounding
// Ckpt.LineAddrs slice, which also preserves first-touch order.
type LineCkpt struct {
	Conflicts    uint64 `json:"conflicts,omitempty"`
	Overflows    uint64 `json:"overflows,omitempty"`
	Peer         uint64 `json:"peer,omitempty"`
	AccessCycles int64  `json:"access_cycles,omitempty"`
	WastedCycles int64  `json:"wasted_cycles,omitempty"`
}

// TxCkpt is one per-VID re-execution record, index-aligned with Ckpt.TxSeqs.
type TxCkpt struct {
	Attempts int   `json:"attempts,omitempty"`
	Wasted   int64 `json:"wasted,omitempty"`
}

// Ckpt is the profiler section of an hmtx-ckpt/v2 checkpoint. Lines and Txs
// are index-aligned with LineAddrs and TxSeqs, whose order is first-touch
// order — restoring it exactly keeps every post-resume snapshot
// byte-identical to the uninterrupted run's.
type Ckpt struct {
	Cores       []CoreCkpt `json:"cores"`
	LineAddrs   []uint64   `json:"line_addrs,omitempty"`
	Lines       []LineCkpt `json:"lines,omitempty"`
	TxSeqs      []uint64   `json:"tx_seqs,omitempty"`
	Txs         []TxCkpt   `json:"txs,omitempty"`
	TotalCycles int64      `json:"total_cycles"`
	Runs        int        `json:"runs"`
	AbortedRuns int        `json:"aborted_runs,omitempty"`
	Live        []int64    `json:"live"`
}

// CaptureCkpt snapshots the collector at a run boundary. It panics if a run
// is in flight (pending charges exist): mid-run profiler state folds only
// once the run's outcome is known, so it is deliberately not serializable.
func (c *Collector) CaptureCkpt() Ckpt {
	ck := Ckpt{
		TotalCycles: c.totalCycles,
		Runs:        c.runs,
		AbortedRuns: c.abortedRuns,
		Live:        append([]int64(nil), c.live[:]...),
	}
	for i := range c.cores {
		cs := &c.cores[i]
		if len(cs.pend) != 0 || cs.runTotal != 0 {
			panic(fmt.Sprintf("prof: CaptureCkpt with pending charges on core %d", i))
		}
		ck.Cores = append(ck.Cores, CoreCkpt{
			Buckets: append([]int64(nil), cs.buckets[:]...),
			Cycles:  cs.cycles,
		})
	}
	for _, addr := range c.lineAddrs {
		l := c.lines[addr]
		ck.LineAddrs = append(ck.LineAddrs, addr)
		ck.Lines = append(ck.Lines, LineCkpt{
			Conflicts:    l.conflicts,
			Overflows:    l.overflows,
			Peer:         l.peer,
			AccessCycles: l.accessCycles,
			WastedCycles: l.wastedCycles,
		})
	}
	for _, seq := range c.txSeqs {
		t := c.txs[seq]
		ck.TxSeqs = append(ck.TxSeqs, seq)
		ck.Txs = append(ck.Txs, TxCkpt{Attempts: t.attempts, Wasted: t.wasted})
	}
	return ck
}

// RestoreCkpt overwrites a fresh collector with checkpointed state. The
// collector must not have accumulated anything yet.
func (c *Collector) RestoreCkpt(ck Ckpt) error {
	if c.runs != 0 || len(c.cores) != 0 || len(c.lineAddrs) != 0 {
		return fmt.Errorf("prof: RestoreCkpt on a non-empty collector")
	}
	if len(ck.Lines) != len(ck.LineAddrs) || len(ck.Txs) != len(ck.TxSeqs) {
		return fmt.Errorf("prof: checkpoint line/tx tables are not index-aligned")
	}
	if len(ck.Live) != int(NumBuckets) {
		return fmt.Errorf("prof: checkpoint has %d live buckets, profiler has %d", len(ck.Live), NumBuckets)
	}
	c.totalCycles = ck.TotalCycles
	c.runs = ck.Runs
	c.abortedRuns = ck.AbortedRuns
	copy(c.live[:], ck.Live)
	for i, cc := range ck.Cores {
		if len(cc.Buckets) != int(NumBuckets) {
			return fmt.Errorf("prof: checkpoint core %d has %d buckets, profiler has %d", i, len(cc.Buckets), NumBuckets)
		}
		cs := c.core(i)
		copy(cs.buckets[:], cc.Buckets)
		cs.cycles = cc.Cycles
	}
	for i, addr := range ck.LineAddrs {
		lc := ck.Lines[i]
		*c.line(addr) = lineStats{
			conflicts:    lc.Conflicts,
			overflows:    lc.Overflows,
			peer:         lc.Peer,
			accessCycles: lc.AccessCycles,
			wastedCycles: lc.WastedCycles,
		}
	}
	for i, seq := range ck.TxSeqs {
		*c.tx(seq) = txRec{attempts: ck.Txs[i].Attempts, wasted: ck.Txs[i].Wasted}
	}
	return nil
}
