package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// This file implements the engine's half of the hmtx-ckpt/v2 checkpoint
// format (internal/ckpt, DESIGN.md §18): capturing and restoring the
// System state that persists across Run calls, plus the per-event debug hook
// cmd/hmtxdbg uses to seek, watch and step through a deterministic
// re-execution.
//
// Checkpoints are only taken at run boundaries, where the machine is
// quiescent: no program coroutines are live, no core is parked, the bus is
// idle and the inter-stage queues are empty (Run resets all of that state
// anyway). What persists — and is therefore checkpointed — is exactly the
// state Run does NOT reset: committed memory (serialized separately via
// memsys.AppendExact), statistics, the commit frontier, the cumulative cycle
// base, per-core branch predictors and recent-address pools, any lingering
// transaction footprints, and the wrong-path RNG position.

// countingSource wraps the engine's deterministic PRNG source and counts raw
// draws. math/rand's rejection sampling makes "number of Intn calls" an
// unreliable replay coordinate, but the number of underlying Uint64 draws is
// exact: fast-forwarding a fresh source by Draws reproduces the stream
// position bit-for-bit without replacing the generator (whose exact output
// the committed cycle baselines depend on).
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// newCountingSource builds the engine RNG source for the given seed.
func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// fastForward discards draws so the stream position matches a checkpoint.
func (c *countingSource) fastForward(draws uint64) {
	for c.draws < draws {
		c.Uint64()
	}
}

// CoreCkpt is the persistent state of one simulated core: the branch
// predictor table and the recent-address pool wrong-path loads draw from.
// Everything else in core is reset at the top of every Run.
type CoreCkpt struct {
	Pred    map[uint64]uint8 `json:"pred,omitempty"`
	Recent  []uint64         `json:"recent,omitempty"`
	RecentN int              `json:"recent_n,omitempty"`
}

// TxCkpt is one in-flight transaction footprint. Footprints normally drain
// by the time a run ends (commit deletes them, aborts clear the map), but an
// early-exit squash can leave entries behind; they are carried verbatim.
type TxCkpt struct {
	Read         []uint64 `json:"read,omitempty"`
	Write        []uint64 `json:"write,omitempty"`
	SpecAccesses uint64   `json:"spec_accesses,omitempty"`
	Avoided      uint64   `json:"avoided,omitempty"`
	Begun        bool     `json:"begun,omitempty"`
	BeginAt      int64    `json:"begin_at,omitempty"`
}

// Ckpt is the engine state of an hmtx-ckpt/v2 checkpoint: every System field
// that survives a Run boundary. It marshals deterministically (maps render
// with sorted keys under encoding/json).
type Ckpt struct {
	Stats          Stats             `json:"stats"`
	LastCommitted  uint64            `json:"last_committed"`
	LastCommitTime int64             `json:"last_commit_time"`
	CumCycles      int64             `json:"cum_cycles"`
	RNGDraws       uint64            `json:"rng_draws"`
	Rounds         int64             `json:"rounds,omitempty"`
	FastOps        int64             `json:"fast_ops,omitempty"`
	Cores          []CoreCkpt        `json:"cores"`
	Txs            map[uint64]TxCkpt `json:"txs,omitempty"`
}

// CaptureCkpt snapshots the persistent engine state. It must be called at a
// run boundary (between Run calls); it panics if the machine is not
// quiescent, because mid-run state (coroutine stacks, parked cores, queue
// contents) is deliberately not serializable.
func (s *System) CaptureCkpt() Ckpt {
	if s.nLive != 0 {
		panic("engine: CaptureCkpt during a run")
	}
	ck := Ckpt{
		Stats:          s.stats,
		LastCommitted:  uint64(s.lastCommitted),
		LastCommitTime: s.lastCommitTime,
		CumCycles:      s.cumCycles,
		RNGDraws:       s.rngSrc.draws,
		Rounds:         s.rounds,
		FastOps:        s.fastOps,
	}
	for _, c := range s.cores {
		if c.parked != parkNone {
			panic("engine: CaptureCkpt with a parked core")
		}
		cc := CoreCkpt{RecentN: c.recentN}
		if len(c.pred) > 0 {
			cc.Pred = make(map[uint64]uint8, len(c.pred))
			for k, v := range c.pred {
				cc.Pred[k] = v
			}
		}
		n := c.recentN
		if n > len(c.recent) {
			n = len(c.recent)
		}
		for i := 0; i < n; i++ {
			cc.Recent = append(cc.Recent, c.recent[i])
		}
		ck.Cores = append(ck.Cores, cc)
	}
	if len(s.txs) > 0 {
		ck.Txs = make(map[uint64]TxCkpt, len(s.txs))
		seqs := make([]vid.Seq, 0, len(s.txs))
		for seq := range s.txs {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			t := s.txs[seq]
			ck.Txs[uint64(seq)] = TxCkpt{
				Read:         sortedAddrs(t.read),
				Write:        sortedAddrs(t.write),
				SpecAccesses: t.specAccesses,
				Avoided:      t.avoided,
				Begun:        t.begun,
				BeginAt:      t.beginAt,
			}
		}
	}
	return ck
}

func sortedAddrs(m map[memsys.Addr]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RestoreCkpt overwrites the persistent engine state with a checkpoint. The
// System must be freshly built by New with the same Config (in particular
// the same Seed and core count) and must not have run yet; the memory
// hierarchy is restored separately via Mem.RestoreExact.
func (s *System) RestoreCkpt(ck Ckpt) error {
	if len(ck.Cores) != len(s.cores) {
		return fmt.Errorf("engine: checkpoint has %d cores, machine has %d", len(ck.Cores), len(s.cores))
	}
	if s.rngSrc.draws > 0 || s.cumCycles != 0 {
		return fmt.Errorf("engine: RestoreCkpt on a system that already ran")
	}
	s.stats = ck.Stats
	s.lastCommitted = vid.Seq(ck.LastCommitted)
	s.lastCommitTime = ck.LastCommitTime
	s.cumCycles = ck.CumCycles
	s.rounds = ck.Rounds
	s.fastOps = ck.FastOps
	s.rngSrc.fastForward(ck.RNGDraws)
	for i, cc := range ck.Cores {
		c := s.cores[i]
		c.pred = make(map[uint64]uint8, len(cc.Pred))
		for k, v := range cc.Pred {
			c.pred[k] = v
		}
		if len(cc.Recent) > len(c.recent) {
			return fmt.Errorf("engine: core %d checkpoint has %d recent addresses, pool holds %d", i, len(cc.Recent), len(c.recent))
		}
		c.recent = [16]memsys.Addr{}
		copy(c.recent[:], cc.Recent)
		c.recentN = cc.RecentN
	}
	s.txs = make(map[vid.Seq]*txStats, len(ck.Txs))
	seqs := make([]uint64, 0, len(ck.Txs))
	for seq := range ck.Txs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		t := ck.Txs[seq]
		ts := &txStats{
			read:         make(map[memsys.Addr]struct{}, len(t.Read)),
			write:        make(map[memsys.Addr]struct{}, len(t.Write)),
			specAccesses: t.SpecAccesses,
			avoided:      t.Avoided,
			begun:        t.Begun,
			beginAt:      t.BeginAt,
		}
		for _, a := range t.Read {
			ts.read[a] = struct{}{}
		}
		for _, a := range t.Write {
			ts.write[a] = struct{}{}
		}
		s.txs[vid.Seq(seq)] = ts
	}
	return nil
}

// DebugEvent describes one scheduler event for an attached debugger: the
// global simulated cycle at which the event is handled, the issuing core,
// its current transaction sequence number, the operation mnemonic, and the
// line address for memory operations (zero otherwise).
type DebugEvent struct {
	Cycle int64
	Core  int
	Seq   vid.Seq
	Op    string
	Addr  memsys.Addr
}

var reqKindNames = [...]string{
	"load", "store", "compute", "branch", "begin", "commit", "abort",
	"produce", "consume", "close", "await", "txinfo", "done",
}

func (k reqKind) String() string {
	if int(k) < len(reqKindNames) {
		return reqKindNames[k]
	}
	return fmt.Sprintf("req(%d)", int(k))
}

// SetDebugHook attaches fn to be called for every scheduler event, before it
// executes, stamped with the global simulated cycle. Like the tracer and
// MOESI-San, an attached debug hook forces the serial reference scheduler
// (useRounds, domains.go): the hook observes per-operation order, which the
// domain-sharded scheduler does not preserve. Pass nil to detach.
func (s *System) SetDebugHook(fn func(DebugEvent)) { s.debug = fn }

// debugEvent reports one event to the attached hook.
func (s *System) debugEvent(c *core, r request) {
	ev := DebugEvent{
		Cycle: s.cumCycles + c.time,
		Core:  c.id,
		Seq:   c.curSeq,
		Op:    r.kind.String(),
	}
	switch r.kind {
	case reqLoad, reqStore:
		ev.Addr = memsys.LineAddr(r.addr)
	case reqBegin, reqCommit, reqAbortTx, reqAwait:
		ev.Seq = r.seq
	}
	s.debug(ev)
}
