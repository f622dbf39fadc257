package engine

import (
	"fmt"
	"math/rand"

	"hmtx/internal/memsys"
	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// Program is a workload thread: it runs on one simulated core and interacts
// with the machine exclusively through its Env.
type Program func(*Env)

// RunResult summarises one parallel region execution.
type RunResult struct {
	// Cycles is the simulated execution time: the latest finish time of
	// any participating core.
	Cycles int64
	// Aborted reports that the region ended in a misspeculation abort;
	// all uncommitted transactions were rolled back (§4.4) and the
	// caller must re-execute everything after LastCommitted.
	Aborted bool
	// Cause describes the misspeculation.
	Cause string
	// LastCommitted is the last transaction sequence number whose
	// effects are durable.
	LastCommitted vid.Seq
}

// Stats aggregates engine-level counters across runs.
type Stats struct {
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64

	// Per-transaction aggregates for Table 1 and Figure 9, accumulated
	// at commit time.
	Txs              uint64
	SpecAccesses     uint64 // speculative loads+stores inside transactions
	AvoidedAborts    uint64 // false misspeculations avoided via SLA (§5.1)
	ReadSetBytes     uint64 // distinct lines read, in bytes
	WriteSetBytes    uint64 // distinct lines written, in bytes
	MaxCombinedBytes uint64 // largest single-transaction combined set

	// Abort-cause breakdown (obs.AbortClass buckets) and in-order
	// commit-wait accounting (§4.7), maintained whether or not tracing is
	// enabled.
	AbortsConflict    uint64
	AbortsOverflow    uint64
	AbortsSLA         uint64
	AbortsExplicit    uint64
	AbortsOther       uint64
	CommitStallCycles uint64
}

type parkKind uint8

const (
	parkNone parkKind = iota
	parkConsume
	parkProduce
	parkCommit
	parkAwait
	parkEpoch
)

type core struct {
	id     int
	time   int64
	finish int64
	done   bool

	// next resumes the core's program coroutine until it issues its next
	// request (coro.go); stop unwinds it while it is suspended. pendingReq
	// is the request it is suspended on, resp the answer it reads when
	// next resumes it.
	next       func() (request, bool)
	stop       func()
	pendingReq request
	resp       response

	parked    parkKind
	parkedReq request
	parkedAt  int64 // core clock when it parked (commit-stall accounting)
	// waitSeq is the commit frontier that releases a core parked on the
	// commit sequence; waitEpoch is the VID epoch a reset-stalled Begin
	// needs. Both are computed once, at park time (sched.go).
	waitSeq   vid.Seq
	waitEpoch uint64

	curSeq vid.Seq
	// curTx caches the txStats of curSeq. It is set at beginMTX, cleared
	// when the transaction commits or the run aborts, and lets round
	// workers (domains.go) reach the core's own transaction footprint
	// without touching the shared s.txs map.
	curTx *txStats

	// fastFailed marks that the pending request passed the engine-side
	// fast-path checks but the memory system refused TryLocalLoad; the
	// coordinator must handle it serially (and clears the flag).
	fastFailed bool
	// crash is a panic value a program raised on a domain worker, which
	// the coordinator re-raises after the round (domains.go).
	crash any

	// Branch predictor: per-site 2-bit saturating counters.
	pred map[uint64]uint8
	// Recently touched addresses, the pool wrong-path loads draw from.
	recent  [16]memsys.Addr
	recentN int
}

func (c *core) pushRecent(a memsys.Addr) {
	c.recent[c.recentN%len(c.recent)] = a
	c.recentN++
}

type qItem struct {
	val   uint64
	ready int64
}

type queue struct {
	items       []qItem
	closed      bool
	lastPopTime int64

	// consumers and producers are the cores parked on this queue.
	consumers, producers []*core
}

// txStats tracks one in-flight transaction's speculative footprint.
type txStats struct {
	read, write  map[memsys.Addr]struct{}
	specAccesses uint64
	avoided      uint64

	// begun/beginAt record the cycle of the first beginMTX of this
	// sequence number, for begin-to-commit latency.
	begun   bool
	beginAt int64
}

// System is the simulated multicore machine.
type System struct {
	cfg   Config
	Mem   *memsys.Hierarchy
	cores []*core
	live  []*core // the cores of the current run

	// The scheduler (sched.go): runnable cores by coreKey, cores parked on
	// the commit sequence by release frontier, and the wake candidates.
	runq    coreHeap
	seqWait coreHeap
	cand    coreSet

	queues map[int]*queue
	txs    map[vid.Seq]*txStats

	// liveSeq counts, per transaction sequence number, how many live cores
	// currently have it as curSeq. The parallel scheduler (domains.go)
	// treats per-transaction state as core-private only when the count is
	// 1; it is maintained at begin/commit, never inside a round.
	liveSeq map[vid.Seq]int

	lastCommitted  vid.Seq
	lastCommitTime int64

	busFreeAt  int64
	aborting   bool
	abortCause string

	rng    *rand.Rand
	rngSrc *countingSource // rng's underlying source; counts draws (ckpt.go)
	stats  Stats
	nLive  int

	// debug is the debugger event hook (ckpt.go); nil when no debugger is
	// attached. Like the tracer, attaching it forces the serial scheduler.
	debug func(DebugEvent)

	tracer *obs.Tracer     // nil when tracing is disabled (obs.go)
	prof   *prof.Collector // nil when profiling is disabled (prof.go)

	// Temporal/causal instruments (metrics.go); each is nil when disabled.
	series    *metrics.Sampler
	conflicts *metrics.Recorder
	lat       *metrics.LatHists

	// cumCycles is the summed makespan of completed runs: the global-time
	// base added to a core clock to stamp metrics with monotone simulated
	// time across recovery runs.
	cumCycles int64

	// rounds and fastOps count parallel-scheduler activity (domains.go):
	// quantum rounds opened and fast operations executed inside them. They
	// are scheduler diagnostics, deliberately kept out of Stats — the
	// simulated-architecture counters must be byte-identical between the
	// serial and parallel schedulers, while these are zero on one of them.
	rounds, fastOps int64

	// Histograms registered by Register (obs.go); nil until then.
	histCommitLat *obs.Histogram
	histReadSet   *obs.Histogram
	histWriteSet  *obs.Histogram
}

// New builds a system; the memory hierarchy is fresh and empty.
func New(cfg Config) *System {
	src := newCountingSource(cfg.Seed)
	s := &System{
		cfg:     cfg,
		Mem:     memsys.New(cfg.Mem),
		queues:  make(map[int]*queue),
		txs:     make(map[vid.Seq]*txStats),
		liveSeq: make(map[vid.Seq]int),
		rng:     rand.New(src),
		rngSrc:  src,
		cand:    newCoreSet(cfg.Mem.Cores),
	}
	s.Mem.SetTracker((*sysTracker)(s))
	for i := 0; i < cfg.Mem.Cores; i++ {
		s.cores = append(s.cores, &core{
			id:   i,
			pred: make(map[uint64]uint8),
		})
	}
	return s
}

// Stats returns the engine-level counters.
func (s *System) Stats() *Stats { return &s.stats }

// LastCommitted returns the last durable transaction sequence number.
func (s *System) LastCommitted() vid.Seq { return s.lastCommitted }

// abortSignal unwinds a program when the region aborts or Run stops it.
type abortSignal struct{}

// Run executes the given programs, one per core starting at core 0, until
// they all finish or the region aborts. Core clocks restart at zero for each
// run; committed memory state, statistics and transaction numbering persist
// across runs, so a caller can re-execute after an abort.
//
// A program that panics (other than by the engine's own abort unwinding)
// makes Run panic with the same value on the caller's goroutine, as does a
// deadlock; either way every other program is unwound first.
func (s *System) Run(programs []Program) RunResult {
	if len(programs) == 0 || len(programs) > len(s.cores) {
		panic(fmt.Sprintf("engine: %d programs for %d cores", len(programs), len(s.cores)))
	}
	s.aborting = false
	s.abortCause = ""
	s.busFreeAt = 0
	if s.tracer.Enabled(obs.CatEngine) {
		s.tracer.SetTime(0)
		s.tracer.Emit(obs.Event{Kind: obs.KRunStart, Core: -1, Arg: uint64(len(programs))})
	}
	s.queues = make(map[int]*queue)
	s.nLive = len(programs)
	live := s.cores[:len(programs)]
	s.live = live
	for _, c := range live {
		c.time, c.finish, c.done, c.parked, c.curSeq = 0, 0, false, parkNone, 0
		c.curTx = nil
		c.fastFailed = false
		c.crash = nil
	}
	clear(s.liveSeq)
	s.runq, s.seqWait = s.runq[:0], s.seqWait[:0]
	clear(s.cand)
	defer s.stopPrograms()
	// Start the program coroutines one at a time, running each to its
	// first request before starting the next. A coroutine runs only while
	// the scheduler waits in its next call, so exactly one program executes
	// between scheduler events: programs may share host-side state (test
	// closures, read-only tables) without data races, and the interleaving
	// is fully deterministic for a given Config.Seed.
	for i, p := range programs {
		c := live[i]
		s.start(c, p)
		s.resume(c)
		s.runq.push(coreKey(c), c)
	}

	if s.useRounds() {
		s.runRounds(live)
	} else {
		s.runSerial()
	}

	var cycles int64
	for _, c := range live {
		if c.finish > cycles {
			cycles = c.finish
		}
	}
	if s.tracer.Enabled(obs.CatEngine) {
		s.tracer.SetTime(cycles)
		s.tracer.Emit(obs.Event{Kind: obs.KRunEnd, Core: -1, Arg: uint64(cycles), Note: s.abortCause})
	}
	if s.prof.Enabled() {
		// The run's outcome is known: fold this run's charges, moving
		// work done for rolled-back transactions to the wasted bucket.
		s.prof.RunEnd(cycles, s.abortCause != "", uint64(s.lastCommitted))
	}
	s.cumCycles += cycles
	return RunResult{
		Cycles:        cycles,
		Aborted:       s.abortCause != "",
		Cause:         s.abortCause,
		LastCommitted: s.lastCommitted,
	}
}

func (s *System) hwVID(q vid.Seq) vid.V {
	if q == 0 {
		return vid.NonSpec
	}
	epoch, v := s.cfg.Mem.VIDSpace.Split(q)
	if epoch != s.Mem.CurrentEpoch() {
		panic(fmt.Sprintf("engine: transaction %d belongs to epoch %d but memory system is in epoch %d", q, epoch, s.Mem.CurrentEpoch()))
	}
	return v
}

func (s *System) tx(q vid.Seq) *txStats {
	t, ok := s.txs[q]
	if !ok {
		t = &txStats{read: make(map[memsys.Addr]struct{}), write: make(map[memsys.Addr]struct{})}
		s.txs[q] = t
	}
	return t
}

func (s *System) handle(c *core, r request) {
	// Stamp subsequent trace events (including the memory system's, which
	// has no clock of its own) with the issuing core's time.
	s.tracer.SetTime(c.time)
	if s.series.Enabled() {
		s.series.Tick(s.cumCycles + c.time)
	}
	if s.conflicts.Enabled() {
		s.conflicts.SetTime(s.cumCycles + c.time)
	}
	if s.debug != nil {
		s.debugEvent(c, r)
	}
	if r.kind == reqDone {
		c.done = true
		c.finish = c.time
		s.nLive--
		if s.prof.Enabled() {
			// Sum-to-total invariant: every cycle of this core's clock
			// must have been charged to a bucket (panics on a gap).
			s.prof.CoreDone(c.id, c.time)
		}
		return
	}
	if s.aborting {
		s.respond(c, response{abort: true})
		return
	}
	switch r.kind {
	case reqLoad:
		hw := s.hwVID(c.curSeq)
		busBefore := s.Mem.Stats().BusMessages
		val, res := s.Mem.Load(c.id, r.addr, hw)
		busWait := s.charge(c, res.Lat, s.Mem.Stats().BusMessages-busBefore)
		s.stats.Instructions++
		if s.prof.Enabled() {
			if busWait > 0 {
				s.prof.Charge(c.id, uint64(c.curSeq), prof.Bus, busWait)
			}
			s.prof.ChargeLine(c.id, uint64(c.curSeq), srcBucket(res.Src), res.Lat, memsys.LineAddr(r.addr))
		}
		c.pushRecent(r.addr)
		if res.Conflict {
			s.triggerAbort(res.Cause, c)
			return
		}
		s.respond(c, response{val: val})

	case reqStore:
		hw := s.hwVID(c.curSeq)
		busBefore := s.Mem.Stats().BusMessages
		res := s.Mem.Store(c.id, r.addr, r.val, hw)
		busWait := s.charge(c, res.Lat, s.Mem.Stats().BusMessages-busBefore)
		s.stats.Instructions++
		if s.prof.Enabled() {
			if busWait > 0 {
				s.prof.Charge(c.id, uint64(c.curSeq), prof.Bus, busWait)
			}
			s.prof.ChargeLine(c.id, uint64(c.curSeq), srcBucket(res.Src), res.Lat, memsys.LineAddr(r.addr))
		}
		c.pushRecent(r.addr)
		if res.Conflict {
			s.triggerAbort(res.Cause, c)
			return
		}
		s.respond(c, response{})

	case reqCompute:
		c.time += int64(r.val)
		s.stats.Instructions += r.val
		if s.prof.Enabled() {
			s.prof.Charge(c.id, uint64(c.curSeq), r.tag, int64(r.val))
		}
		if s.lat.Enabled() && r.tag == prof.Validation {
			s.lat.Validation.Observe(r.val)
		}
		s.respond(c, response{})

	case reqBranch:
		if !s.branch(c, r) {
			return // aborted inside the branch (SLA-disabled mode)
		}
		s.respond(c, response{})

	case reqBegin:
		if !s.begin(c, r) {
			return // parked on a VID-reset stall (§4.6)
		}
		s.respond(c, response{})

	case reqCommit:
		if r.seq != s.lastCommitted+1 {
			s.park(c, parkCommit, r, r.seq-1)
			return
		}
		if s.lat.Enabled() {
			// The commit proceeded without parking: zero arbitration
			// stall, recorded so the percentiles cover every commit.
			s.lat.CommitArb.Observe(0)
		}
		s.doCommit(c, r.seq)
		s.respond(c, response{})

	case reqAbortTx:
		if s.conflicts.Enabled() {
			// A software abort: the transaction rolled itself back.
			s.conflicts.SetTime(s.cumCycles + c.time)
			s.conflicts.Record(uint64(r.seq), uint64(r.seq), 0, metrics.EdgeExplicit)
		}
		s.triggerAbort(fmt.Sprintf("explicit abortMTX by core %d (seq %d)", c.id, r.seq), c)

	case reqProduce:
		q := s.queue(r.q)
		if len(q.items) >= s.cfg.QueueCap {
			s.park(c, parkProduce, r, 0)
			return
		}
		s.doProduce(c, q, r.val)
		if s.tracer.Enabled(obs.CatQueue) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KQueueProduce, Core: int32(c.id), Arg: uint64(r.q)})
		}
		s.respond(c, response{})

	case reqConsume:
		q := s.queue(r.q)
		switch {
		case len(q.items) > 0:
			val := s.doConsume(c, q)
			if s.tracer.Enabled(obs.CatQueue) {
				s.tracer.SetTime(c.time)
				s.tracer.Emit(obs.Event{Kind: obs.KQueueConsume, Core: int32(c.id), Arg: uint64(r.q)})
			}
			s.respond(c, response{val: val, ok: true})
		case q.closed:
			s.respond(c, response{ok: false})
		default:
			s.park(c, parkConsume, r, 0)
		}

	case reqClose:
		q := s.queue(r.q)
		q.closed = true
		s.markAll(q.consumers)
		c.time += s.cfg.QueueOpCost
		if s.prof.Enabled() {
			s.prof.Charge(c.id, uint64(c.curSeq), prof.Compute, s.cfg.QueueOpCost)
		}
		if s.tracer.Enabled(obs.CatQueue) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KQueueClose, Core: int32(c.id), Arg: uint64(r.q)})
		}
		s.respond(c, response{})

	case reqAwait:
		if s.lastCommitted >= r.seq {
			s.respond(c, response{})
			return
		}
		s.park(c, parkAwait, r, r.seq)

	case reqTxInfo:
		s.respond(c, response{val: s.txInfo(c)})

	default:
		panic(fmt.Sprintf("engine: unknown request kind %d", r.kind))
	}
}

// charge advances the core's clock by lat cycles; if the operation used the
// shared bus, the core first arbitrates for it and occupies it for
// busOps transactions, serialising concurrent misses from different cores.
// It returns the cycles spent waiting for bus arbitration (zero when the bus
// was free or unused), so the profiler can split contention from latency.
func (s *System) charge(c *core, lat int64, busOps uint64) int64 {
	if busOps > 0 {
		start := c.time
		if s.busFreeAt > start {
			start = s.busFreeAt
		}
		s.busFreeAt = start + int64(busOps)*s.cfg.BusOccupancy
		wait := start - c.time
		c.time = start + lat
		return wait
	}
	c.time += lat
	return 0
}

func (s *System) queue(id int) *queue {
	q, ok := s.queues[id]
	if !ok {
		q = &queue{}
		s.queues[id] = q
	}
	return q
}

func (s *System) doProduce(c *core, q *queue, val uint64) {
	q.items = append(q.items, qItem{val: val, ready: c.time + s.cfg.QueueLat})
	s.markAll(q.consumers)
	c.time += s.cfg.QueueOpCost
	s.stats.Instructions++
	if s.prof.Enabled() {
		s.prof.Charge(c.id, uint64(c.curSeq), prof.Compute, s.cfg.QueueOpCost)
	}
}

func (s *System) doConsume(c *core, q *queue) uint64 {
	it := q.items[0]
	q.items = q.items[1:]
	s.markAll(q.producers)
	if it.ready > c.time {
		if s.prof.Enabled() {
			s.prof.Charge(c.id, uint64(c.curSeq), prof.QueueWait, it.ready-c.time)
		}
		c.time = it.ready
	}
	c.time += s.cfg.QueueOpCost
	q.lastPopTime = c.time
	s.stats.Instructions++
	if s.prof.Enabled() {
		s.prof.Charge(c.id, uint64(c.curSeq), prof.Compute, s.cfg.QueueOpCost)
	}
	return it.val
}

// begin executes beginMTX(seq). It returns false if the core parked waiting
// for outstanding commits before a VID reset (§4.6).
func (s *System) begin(c *core, r request) bool {
	if r.seq != 0 {
		needEpoch := s.cfg.Mem.VIDSpace.Epoch(r.seq)
		if cur := s.Mem.CurrentEpoch(); needEpoch > cur {
			// All transactions of earlier epochs must commit before
			// the VID space can be reset; this is the pipeline
			// stall the paper's VID-width trade-off is about.
			firstOfEpoch := vid.Seq(needEpoch * s.cfg.Mem.VIDSpace.PerEpoch())
			if s.lastCommitted < firstOfEpoch {
				c.waitEpoch = needEpoch
				s.park(c, parkEpoch, r, firstOfEpoch)
				return false
			}
			s.resetVIDs(c)
		}
	}
	s.enter(c, r.seq)
	return true
}

// resetVIDs performs the VID reset (§4.6) on behalf of core c.
func (s *System) resetVIDs(c *core) {
	res := s.Mem.VIDReset()
	c.time += res.Lat
	if s.prof.Enabled() {
		// Epoch machinery, not any one transaction's work: charge to
		// seq 0 so it never folds into wasted.
		s.prof.Charge(c.id, 0, prof.CommitStall, res.Lat)
	}
}

// enter makes seq core c's current transaction (0: non-speculative).
func (s *System) enter(c *core, seq vid.Seq) {
	if c.curSeq != 0 {
		s.seqRelease(c.curSeq)
	}
	if seq != 0 {
		s.liveSeq[seq]++
	}
	c.curSeq = seq
	c.curTx = nil
	c.time++ // the beginMTX instruction itself
	s.stats.Instructions++
	if s.prof.Enabled() {
		s.prof.Charge(c.id, uint64(seq), prof.Compute, 1)
	}
	if seq != 0 {
		t := s.tx(seq)
		c.curTx = t
		if !t.begun {
			t.begun, t.beginAt = true, c.time
		}
		if s.tracer.Enabled(obs.CatTxn) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KTxBegin, Core: int32(c.id), VID: uint64(seq)})
		}
	}
}

func (s *System) doCommit(c *core, seq vid.Seq) {
	res := s.Mem.Commit(s.hwVID(seq))
	c.time += res.Lat
	s.stats.Instructions++
	if s.prof.Enabled() {
		s.prof.Charge(c.id, uint64(seq), prof.Commit, res.Lat)
	}
	s.lastCommitted = seq
	s.markCommitted()
	if c.time > s.lastCommitTime {
		s.lastCommitTime = c.time
	}
	// The footprint entry below is deleted; drop every cached pointer to it
	// (an MTX's sequence number may be current on several cores).
	for _, d := range s.cores {
		if d.curSeq == seq {
			d.curTx = nil
		}
	}
	if c.curSeq == seq {
		c.curSeq = 0 // commitMTX returns to non-speculative execution
		s.seqRelease(seq)
	}
	if t, ok := s.txs[seq]; ok {
		s.stats.Txs++
		s.stats.SpecAccesses += t.specAccesses
		s.stats.AvoidedAborts += t.avoided
		rb := uint64(len(t.read)) * memsys.LineSize
		wb := uint64(len(t.write)) * memsys.LineSize
		s.stats.ReadSetBytes += rb
		s.stats.WriteSetBytes += wb
		if rb+wb > s.stats.MaxCombinedBytes {
			s.stats.MaxCombinedBytes = rb + wb
		}
		// Begin-to-commit latency; the begin may have run on another
		// core whose clock is ahead, so clamp at zero.
		var lat int64
		if t.begun && c.time > t.beginAt {
			lat = c.time - t.beginAt
		}
		if s.histCommitLat != nil {
			s.histCommitLat.Observe(uint64(lat))
			s.histReadSet.Observe(rb)
			s.histWriteSet.Observe(wb)
		}
		if s.lat.Enabled() {
			s.lat.Open.Observe(uint64(lat))
		}
		if s.tracer.Enabled(obs.CatTxn) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KTxCommit, Core: int32(c.id), VID: uint64(seq), Arg: uint64(lat)})
		}
		delete(s.txs, seq)
	}
}

// branch models one conditional branch; it returns false if the core
// aborted while executing wrong-path loads (only possible with SLAs
// disabled).
func (s *System) branch(c *core, r request) bool {
	s.stats.Branches++
	s.stats.Instructions++
	c.time++
	if s.prof.Enabled() {
		s.prof.Charge(c.id, uint64(c.curSeq), prof.Compute, 1)
	}
	ctr := c.pred[r.site]
	predictTaken := ctr >= 2
	if predictTaken != r.taken {
		s.stats.Mispredicts++
		c.time += s.cfg.MispredictPenalty
		if s.prof.Enabled() {
			s.prof.Charge(c.id, uint64(c.curSeq), prof.Compute, s.cfg.MispredictPenalty)
		}
		// Squashed wrong-path loads execute before the misprediction
		// is discovered (§5.1). They pull data through the caches but,
		// with SLAs, never mark lines.
		if c.curSeq != 0 && c.recentN > 0 {
			hw := s.hwVID(c.curSeq)
			n := len(c.recent)
			if c.recentN < n {
				n = c.recentN
			}
			for i := 0; i < s.cfg.WrongPathLoads; i++ {
				base := c.recent[s.rng.Intn(n)]
				// Wrong-path loads stray a few lines either side of
				// recently touched data — including into regions
				// that earlier transactions are still writing,
				// which is exactly what SLAs protect against.
				stride := int64(s.rng.Intn(16)-8) * memsys.LineSize
				addr := memsys.Addr(int64(base) + stride)
				_, res := s.Mem.WrongPathLoad(c.id, addr, hw)
				if res.Conflict {
					// Only possible when SLAs are disabled:
					// the squashed load marked a line and
					// tripped over existing versions.
					s.triggerAbort(res.Cause, c)
					return false
				}
			}
		}
	}
	// 2-bit saturating update.
	if r.taken && ctr < 3 {
		c.pred[r.site] = ctr + 1
	} else if !r.taken && ctr > 0 {
		c.pred[r.site] = ctr - 1
	}
	return true
}

func (s *System) triggerAbort(cause string, c *core) {
	res := s.Mem.AbortAll()
	c.time += res.Lat
	if s.prof.Enabled() {
		// Charged to seq 0: the rollback sweep itself is machine
		// overhead, distinct from the wasted re-execution it causes.
		s.prof.Charge(c.id, 0, prof.Abort, res.Lat)
	}
	s.aborting = true
	s.abortCause = cause
	switch obs.AbortClass(cause) {
	case "conflict":
		s.stats.AbortsConflict++
	case "overflow":
		s.stats.AbortsOverflow++
	case "sla-mismatch":
		s.stats.AbortsSLA++
	case "explicit":
		s.stats.AbortsExplicit++
	default:
		s.stats.AbortsOther++
	}
	if s.tracer.Enabled(obs.CatTxn) {
		s.tracer.SetTime(c.time)
		s.tracer.Emit(obs.Event{Kind: obs.KTxAbort, Core: int32(c.id), VID: uint64(c.curSeq), Note: cause})
	}
	// Discard in-flight transaction footprints; they never committed.
	s.txs = make(map[vid.Seq]*txStats)
	for _, d := range s.cores {
		d.curTx = nil
	}
	s.markAborted()
	s.respond(c, response{abort: true})
}

// sysTracker implements memsys.Tracker on System.
type sysTracker System

func (t *sysTracker) SpecTouch(coreID int, lineAddr memsys.Addr, isStore bool) bool {
	s := (*System)(t)
	seq := s.cores[coreID].curSeq
	if seq == 0 {
		return true
	}
	tx := s.tx(seq)
	tx.specAccesses++
	_, inR := tx.read[lineAddr]
	_, inW := tx.write[lineAddr]
	if isStore {
		tx.write[lineAddr] = struct{}{}
	} else {
		tx.read[lineAddr] = struct{}{}
	}
	return inR || inW
}

func (t *sysTracker) WrongPath(coreID int, lineAddr memsys.Addr) {}

func (t *sysTracker) AvoidedAbort(coreID int) {
	s := (*System)(t)
	seq := s.cores[coreID].curSeq
	if seq == 0 {
		return
	}
	s.tx(seq).avoided++
}
