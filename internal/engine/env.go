package engine

import (
	"hmtx/internal/memsys"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

type reqKind uint8

const (
	reqLoad reqKind = iota
	reqStore
	reqCompute
	reqBranch
	reqBegin
	reqCommit
	reqAbortTx
	reqProduce
	reqConsume
	reqClose
	reqAwait
	reqTxInfo
	reqDone
)

type request struct {
	kind  reqKind
	addr  memsys.Addr
	val   uint64
	seq   vid.Seq
	q     int
	site  uint64
	taken bool
	// tag is the profiler bucket for reqCompute work; the zero value is
	// prof.Compute, so only overhead charges (ComputeValidation) set it.
	tag prof.Bucket
}

type response struct {
	val   uint64
	ok    bool
	abort bool
}

// Env is a program's handle to its simulated core. All methods may only be
// called from the program itself, which runs as a coroutine (coro.go).
//
// When the region aborts, every Env method unwinds the program via an
// internal panic that the engine recovers; the program's Run call then
// reports the abort, and the caller re-executes from the last committed
// transaction. This is the software-visible analogue of jumping to the
// recovery code registered with initMTX (§3.1).
type Env struct {
	sys   *System
	c     *core
	yield func(request) bool
}

// CoreID returns the simulated core this program runs on.
func (e *Env) CoreID() int { return e.c.id }

// Now returns the core's current cycle count.
func (e *Env) Now() int64 { return e.c.time }

func (e *Env) rpc(r request) response {
	if !e.yield(r) || e.c.resp.abort {
		// The region aborted, or Run is unwinding its programs.
		panic(abortSignal{})
	}
	return e.c.resp
}

// Load issues a load; inside a transaction it is speculative and validated
// by the HMTX system (maximal speculation validation: every load, §6.1).
func (e *Env) Load(addr memsys.Addr) uint64 {
	return e.rpc(request{kind: reqLoad, addr: addr}).val
}

// Store issues a store; inside a transaction it creates or updates the
// transaction's version of the line.
func (e *Env) Store(addr memsys.Addr, val uint64) {
	e.rpc(request{kind: reqStore, addr: addr, val: val})
}

// Compute charges n cycles of non-memory work (n instructions at IPC 1).
func (e *Env) Compute(n int64) {
	if n <= 0 {
		return
	}
	e.rpc(request{kind: reqCompute, val: uint64(n)})
}

// ComputeValidation charges n cycles like Compute, but attributes them to the
// profiler's validation bucket. The SMTX baseline uses it for the software
// costs HMTX moves into hardware — validation-record logging, forwarding, and
// commit-process replay (§2, §6) — so a profile diff against HMTX shows the
// overhead shift directly.
func (e *Env) ComputeValidation(n int64) {
	if n <= 0 {
		return
	}
	e.rpc(request{kind: reqCompute, val: uint64(n), tag: prof.Validation})
}

// Branch models a conditional branch at the given site. A misprediction
// pays the pipeline penalty and issues squashed wrong-path loads (§5.1).
func (e *Env) Branch(site uint64, taken bool) {
	e.rpc(request{kind: reqBranch, site: site, taken: taken})
}

// Begin executes beginMTX: subsequent memory operations belong to
// transaction seq (0 returns to non-speculative execution without
// committing, §3.1). Entering a new VID epoch stalls until all earlier
// transactions commit, then performs the VID reset (§4.6).
func (e *Env) Begin(seq vid.Seq) {
	e.rpc(request{kind: reqBegin, seq: seq})
}

// Commit executes commitMTX(seq): it blocks until seq-1 has committed
// (commits must be consecutive, §4.7), then atomically group-commits every
// speculative modification of the transaction across all caches.
func (e *Env) Commit(seq vid.Seq) {
	e.rpc(request{kind: reqCommit, seq: seq})
}

// Abort executes abortMTX: it signals software-detected misspeculation
// (e.g. control-flow misspeculation, §3.2), rolling back every uncommitted
// transaction. It does not return: the program unwinds.
func (e *Env) Abort(seq vid.Seq) {
	e.rpc(request{kind: reqAbortTx, seq: seq})
	// Unreachable: the rpc always reports the abort and unwinds.
}

// Produce appends val to queue q (e.g. produceVID in Figure 3); it stalls
// while the queue is full.
func (e *Env) Produce(q int, val uint64) {
	e.rpc(request{kind: reqProduce, q: q, val: val})
}

// Consume pops the next value from queue q, stalling until one is available.
// ok is false once the queue is closed and drained.
func (e *Env) Consume(q int) (val uint64, ok bool) {
	r := e.rpc(request{kind: reqConsume, q: q})
	return r.val, r.ok
}

// CloseQueue marks queue q closed; drained consumers observe ok == false.
func (e *Env) CloseQueue(q int) {
	e.rpc(request{kind: reqClose, q: q})
}

// AwaitCommitted stalls until transaction seq has committed. The software
// runtime uses it to bound outstanding speculative state.
func (e *Env) AwaitCommitted(seq vid.Seq) {
	e.rpc(request{kind: reqAwait, seq: seq})
}

// SpecAccessCount returns the number of speculative memory accesses the
// core's current transaction has performed so far. The SMTX baseline uses it
// to size the validation-record batches it ships to the commit process.
func (e *Env) SpecAccessCount() uint64 {
	return e.rpc(request{kind: reqTxInfo}).val
}
