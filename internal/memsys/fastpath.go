package memsys

import "hmtx/internal/vid"

// This file is the memsys half of the domain-sharded parallel scheduler
// (internal/engine/domains.go, DESIGN.md §16). During a parallel round, each
// core's worker goroutine may execute "fast" operations that touch only
// core-private state; a load qualifies only when it can be served entirely
// from the requesting core's own L1 with no protocol side effects beyond that
// cache. TryLocalLoad is that restricted load path: it mirrors the L1-hit arm
// of Hierarchy.load exactly, and refuses (ok=false) anything that would need
// the bus, the L2, another core's cache, shared statistics mutation beyond
// what the caller replays, or an SLA decision.
//
// Concurrency contract: during a round, TryLocalLoad(core, ...) is called
// only by core's own worker, and no global operation (Store, remote Load,
// Commit, AbortAll, VIDReset, Evict) runs concurrently. The only state it
// writes is core-private — the core's own L1 (settle scans, LRU stamps,
// per-cache hit counter, High bumps on resident lines) — so concurrent calls
// for different cores never race. Hierarchy-global state (h.stats, h.pres,
// h.lc, h.epoch, h.gen, pendingOverflow) is read-only here; the caller
// buffers the statistics deltas (L1Hits, SpecLoads) and replays them in
// canonical key order.
//
// TryLocalLoad never calls the tracker: the engine only offers loads whose
// line is already in the issuing transaction's access sets, so the serial
// path's trackLoad would find SpecTouch(...)=already and send no SLA; the
// engine replicates the read-set insert and speculative-access count itself.
//
//hmtx:hotpath
func (h *Hierarchy) TryLocalLoad(core int, addr Addr, a vid.V, stampOnly bool) (val uint64, res Result, specHit, ok bool) {
	if h.pendingOverflow {
		// A pending §5.4 overflow must surface as Result.Conflict on the
		// very next operation; only the serial path reports it.
		return 0, res, false, false
	}
	la := LineAddr(addr)
	l1 := h.l1s[core]
	if stampOnly {
		// The caller samples live spec-line occupancy between operations
		// (hmtx-series); a settle scan here would commit lazy state out of
		// canonical order and change those samples. Only proceed when the
		// set is already settle-stamped for this tag, making the scan in
		// findHit→set a provable no-op.
		if m := &l1.meta[l1.setIndex(la)]; m.gen != h.gen || m.tag != la {
			return 0, res, false, false
		}
	}
	spec := a != vid.NonSpec
	eff := a
	if !spec {
		eff = h.lc
	}
	// findHit settles resident versions of la first (cache.set). If the
	// probe then fails, that settle already happened earlier than the serial
	// schedule would have done it — which is invisible: settling is a pure,
	// composable function of (line, epoch, lc) (lazy commit, §5.3), so
	// settling now and re-settling at the op's serial turn yields the state
	// a single settle there would have.
	ln := l1.findHit(la, eff, false)
	if ln == nil {
		return 0, res, false, false
	}
	if spec && !ln.St.Speculative() {
		// Speculatively reading a non-speculative line converts it
		// (specReadTransition) and may need a bus upgrade — protocol-global
		// work, and a state change the series sampler could observe.
		return 0, res, false, false
	}
	// The L1-hit arm of Hierarchy.load, minus the shared-stats bumps
	// (L1Hits, SpecLoads) that the caller replays in key order.
	l1.hits++
	l1.touch(ln)
	val = ln.Word(addr)
	if spec && ln.St.latest() && a > ln.High {
		ln.High = a
	}
	res.Lat = h.cfg.L1Lat
	return val, res, spec, true
}

// HasLatencyHists reports whether per-operation latency histograms are
// registered on the hierarchy. The parallel scheduler falls back to the
// serial loop when they are: histogram observation order is part of the
// byte-identical output contract and only the serial path preserves it.
func (h *Hierarchy) HasLatencyHists() bool {
	return h.histLoadLat != nil || h.histStoreLat != nil
}
