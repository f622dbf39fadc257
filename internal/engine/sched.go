package engine

import (
	"fmt"
	"math/bits"

	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// This file is the serial scheduler (DESIGN.md §9.1). Runnable cores sit in
// a min-heap keyed by coreKey, so the next event is always the earliest
// clock, lowest core ID on ties. A parked core sits on the wait list of what
// it waits for: a queue's consumers or producers, or the commit-sequence heap
// keyed by the commit frontier that can release it (computed once, at park
// time). An event on one of those things marks only its waiters as wake
// candidates, and retryParked examines the candidates in ascending core ID,
// pass after pass until none is left — the order of a full scan over every
// parked core, repeated until nothing changes, by construction: a core that
// is not a candidate has a wait condition that is false.

// runSerial is the single-loop scheduler: one event at a time, the
// earliest-clock runnable core first. It is the reference implementation the
// parallel scheduler (domains.go) must match byte-for-byte.
func (s *System) runSerial() {
	for s.nLive > 0 {
		c := s.runq.peek()
		if c == nil {
			s.dumpDeadlock()
		}
		s.step(c)
	}
}

// step handles the pending request of c, the runnable core with the smallest
// key, then wakes the parked cores the event released.
func (s *System) step(c *core) {
	s.handle(c, c.pendingReq)
	if c.done || c.parked != parkNone {
		s.runq.pop()
	} else {
		s.runq.fixTop(coreKey(c))
	}
	s.retryParked()
}

func (s *System) dumpDeadlock() {
	msg := "engine: deadlock: all cores parked:"
	for _, c := range s.live {
		msg += fmt.Sprintf(" core%d(done=%v park=%d seq=%d)", c.id, c.done, c.parked, c.curSeq)
	}
	// Run's deferred stopPrograms unwinds every suspended program before
	// this panic leaves Run.
	panic(msg)
}

// heapEntry is one core in a coreHeap, with the key it is ordered by.
type heapEntry struct {
	key int64
	c   *core
}

// coreHeap is a binary min-heap of cores. Keys carry the core ID in their
// low 8 bits, so they are unique and the order is total.
type coreHeap []heapEntry

func (h *coreHeap) push(key int64, c *core) {
	*h = append(*h, heapEntry{key, c})
	h.up(len(*h) - 1)
}

// peek returns the core with the smallest key, or nil.
func (h coreHeap) peek() *core {
	if len(h) == 0 {
		return nil
	}
	return h[0].c
}

func (h *coreHeap) pop() *core {
	old := *h
	n := len(old) - 1
	top := old[0].c
	old[0] = old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	h.down(0)
	return top
}

// fixTop re-keys the minimum entry and restores the heap order.
func (h coreHeap) fixTop(key int64) {
	h[0].key = key
	h.down(0)
}

// rekey recomputes every key from the cores' clocks and rebuilds the heap;
// the parallel scheduler calls it after a round advanced many clocks.
func (h coreHeap) rekey() {
	for i := range h {
		h[i].key = coreKey(h[i].c)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h coreHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h coreHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].key < h[m].key {
			m = r
		}
		if h[i].key <= h[m].key {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// coreSet is a bitset of core IDs.
type coreSet []uint64

func newCoreSet(n int) coreSet { return make(coreSet, (n+63)/64) }

func (w coreSet) add(id int) { w[id>>6] |= 1 << (id & 63) }

func (w coreSet) empty() bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// take removes and returns the smallest member not below from, or -1.
func (w coreSet) take(from int) int {
	for i := from >> 6; i < len(w); i++ {
		m := w[i]
		if i == from>>6 {
			m &^= 1<<(from&63) - 1
		}
		if m != 0 {
			b := bits.TrailingZeros64(m)
			w[i] &^= 1 << b
			return i<<6 | b
		}
	}
	return -1
}

// markAll makes every core on a wait list a wake candidate.
func (s *System) markAll(waiters []*core) {
	for _, c := range waiters {
		s.cand.add(c.id)
	}
}

// markCommitted makes wake candidates of the cores on the commit-sequence
// heap whose release frontier the last commit reached.
func (s *System) markCommitted() {
	for len(s.seqWait) > 0 && s.seqWait[0].key>>8 <= int64(s.lastCommitted) {
		s.cand.add(s.seqWait.pop().id)
	}
}

// unwait removes c from a queue wait list.
func unwait(waiters []*core, c *core) []*core {
	for i, d := range waiters {
		if d == c {
			last := len(waiters) - 1
			waiters[i] = waiters[last]
			waiters[last] = nil
			return waiters[:last]
		}
	}
	return waiters
}

// park suspends c on request r until its condition may hold. For the
// commit-sequence kinds, at is the commit frontier that releases it: r.seq-1
// for a commit, r.seq for an await, the last sequence number of the previous
// epoch for a VID-reset stall.
func (s *System) park(c *core, k parkKind, r request, at vid.Seq) {
	c.parked = k
	c.parkedReq = r
	c.parkedAt = c.time
	c.waitSeq = at
	switch k {
	case parkConsume:
		q := s.queue(r.q)
		q.consumers = append(q.consumers, c)
	case parkProduce:
		q := s.queue(r.q)
		q.producers = append(q.producers, c)
	default: // parkCommit, parkAwait, parkEpoch
		if k == parkCommit && r.seq <= s.lastCommitted {
			break // its turn has passed: only an abort wakes it
		}
		s.seqWait.push(int64(at)<<8|int64(c.id), c)
	}
	if k == parkCommit && s.tracer.Enabled(obs.CatCommit) {
		s.tracer.SetTime(c.time)
		s.tracer.Emit(obs.Event{Kind: obs.KCommitStall, Core: int32(c.id), VID: uint64(r.seq)})
	}
}

// markAborted makes every parked core a wake candidate: an abort releases
// all of them.
func (s *System) markAborted() {
	for _, c := range s.live {
		if c.parked != parkNone {
			s.cand.add(c.id)
		}
	}
}

// retryParked wakes the candidate cores whose condition now holds, in
// ascending core ID; a wake that marks a lower ID is examined on the next
// pass, so chains (commit unblocking commit unblocking a VID reset) resolve
// before the next event. A woken program runs alone until it issues its next
// request.
func (s *System) retryParked() {
	for !s.cand.empty() {
		for id := s.cand.take(0); id >= 0; id = s.cand.take(id + 1) {
			s.tryWake(s.cores[id])
		}
	}
}

// tryWake completes candidate c's parked operation if its condition holds,
// resumes its program and makes it runnable again.
func (s *System) tryWake(c *core) {
	if c.parked == parkNone || c.done {
		return
	}
	var resp response
	r := c.parkedReq
	switch {
	case s.aborting:
		c.parked = parkNone
		resp.abort = true
	case c.parked == parkConsume:
		q := s.queue(r.q)
		if len(q.items) == 0 && !q.closed {
			return
		}
		c.parked = parkNone
		q.consumers = unwait(q.consumers, c)
		if len(q.items) > 0 {
			resp.val, resp.ok = s.doConsume(c, q), true
			if s.tracer.Enabled(obs.CatQueue) {
				s.tracer.SetTime(c.time)
				s.tracer.Emit(obs.Event{Kind: obs.KQueueConsume, Core: int32(c.id), Arg: uint64(r.q)})
			}
		}
	case c.parked == parkProduce:
		q := s.queue(r.q)
		if len(q.items) >= s.cfg.QueueCap {
			return
		}
		c.parked = parkNone
		q.producers = unwait(q.producers, c)
		if q.lastPopTime > c.time {
			if s.prof.Enabled() {
				s.prof.Charge(c.id, uint64(c.curSeq), prof.QueueWait, q.lastPopTime-c.time)
			}
			c.time = q.lastPopTime
		}
		s.doProduce(c, q, r.val)
		if s.tracer.Enabled(obs.CatQueue) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KQueueProduce, Core: int32(c.id), Arg: uint64(r.q)})
		}
	case c.parked == parkCommit:
		if r.seq != s.lastCommitted+1 {
			return
		}
		c.parked = parkNone
		if s.lastCommitTime > c.time {
			if s.prof.Enabled() {
				s.prof.Charge(c.id, uint64(r.seq), prof.CommitStall, s.lastCommitTime-c.time)
			}
			c.time = s.lastCommitTime
		}
		stall := c.time - c.parkedAt
		if stall < 0 {
			stall = 0
		}
		s.stats.CommitStallCycles += uint64(stall)
		if s.lat.Enabled() {
			s.lat.CommitArb.Observe(uint64(stall))
		}
		if s.tracer.Enabled(obs.CatCommit) {
			s.tracer.SetTime(c.time)
			s.tracer.Emit(obs.Event{Kind: obs.KCommitResume, Core: int32(c.id), VID: uint64(r.seq), Arg: uint64(stall)})
		}
		s.doCommit(c, r.seq)
	default: // parkAwait, parkEpoch
		if s.lastCommitted < c.waitSeq {
			return
		}
		k := c.parked
		c.parked = parkNone
		if s.lastCommitTime > c.time {
			if s.prof.Enabled() {
				s.prof.Charge(c.id, 0, prof.CommitStall, s.lastCommitTime-c.time)
			}
			c.time = s.lastCommitTime
		}
		if k == parkEpoch {
			if c.waitEpoch > s.Mem.CurrentEpoch() {
				s.resetVIDs(c)
			}
			s.enter(c, r.seq)
		}
	}
	s.respond(c, resp)
	s.runq.push(coreKey(c), c)
}
