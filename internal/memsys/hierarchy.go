package memsys

import (
	"fmt"
	"math/bits"

	"hmtx/internal/metrics"
	"hmtx/internal/obs"
	"hmtx/internal/prof"
	"hmtx/internal/vid"
)

// Hierarchy is the simulated memory system: per-core L1 caches and a shared
// L2 connected by a snoopy bus, backed by main memory, running the HMTX
// coherence protocol (§4).
//
// The hierarchy is exclusive between levels: a line version lives in at most
// one of {some L1, the L2} at a time, except for SpecShared (and Shared)
// copies, which may replicate a version held elsewhere.
type Hierarchy struct {
	cfg       Config
	l1s       []*cache
	l2        *cache
	all       []*cache // every cache: l1s in core order, then l2 (built once in New)
	mem       *memory
	lc        vid.V  // latest committed VID (LC VID register, §5.3)
	epoch     uint64 // VID epoch, advanced by VID Reset (§4.6)
	stats     Stats
	tracker   Tracker
	tracer    *obs.Tracer       // nil when tracing is disabled (obs.go)
	prof      *prof.Collector   // nil when profiling is disabled (prof.go)
	conflicts *metrics.Recorder // nil when conflict recording is disabled (metrics.go)

	// gen is the coherence generation, bumped whenever (epoch, lc) moves or
	// an abort sweep rewrites lines. Each cache set records the generation
	// of its last settle scan, making repeat scans skippable (cache.set).
	gen uint64

	// pres is the snoop filter (DESIGN.md §11): for each line address, a
	// bitmask of the caches (bit i = h.all[i]) that may hold a version of
	// the line. The mask is a conservative superset — a set bit may be
	// stale, but a clear bit guarantees absence — so bus snoops and
	// protocol sweeps visit only caches that can respond instead of
	// broadcasting to all Cores+1 caches. MOESI-San asserts the superset
	// property after every operation (invariant 8, sanitize.go).
	pres map[Addr]presMask

	// Latency histograms, registered by Register (obs.go); nil until then.
	histLoadLat  *obs.Histogram
	histStoreLat *obs.Histogram

	// pendingOverflow records that a speculative line was evicted past
	// the last-level cache during the current operation, forcing an
	// abort (§5.4).
	pendingOverflow bool

	// san is the MOESI-San state (sanitize.go), active when cfg.Sanitize.
	san sanitizer
}

// New builds a hierarchy for the given configuration. It panics if
// cfg.Validate reports an error.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hierarchy{cfg: cfg, mem: newMemory(), gen: 1, pres: make(map[Addr]presMask)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1s = append(h.l1s, newCache(fmt.Sprintf("L1.%d", i), i, cfg.L1Size, cfg.L1Ways, h))
	}
	h.l2 = newCache("L2", cfg.Cores, cfg.L2Size, cfg.L2Ways, h)
	h.all = append(append([]*cache{}, h.l1s...), h.l2)
	return h
}

// markPresent records that cache c may hold a version of lineAddr.
func (h *Hierarchy) markPresent(c *cache, lineAddr Addr) {
	m := h.pres[lineAddr]
	m.set(c.id)
	h.pres[lineAddr] = m
}

// clearPresent records that cache c holds no version of lineAddr. It must
// only be called when absence has actually been verified (insert's victim
// rescan, or a sweep that found the set empty for the tag).
func (h *Hierarchy) clearPresent(c *cache, lineAddr Addr) {
	m := h.pres[lineAddr]
	m.clear(c.id)
	if m.empty() {
		delete(h.pres, lineAddr)
	} else {
		h.pres[lineAddr] = m
	}
}

// holders returns the presence mask for lineAddr: the caches a snoop or
// protocol sweep must visit. Caches outside the mask provably hold no
// version of the line, so skipping them is invisible to the protocol.
func (h *Hierarchy) holders(lineAddr Addr) presMask { return h.pres[lineAddr] }

// sweepVersions applies fn to every settled, valid version of lineAddr in
// every cache that may hold one, in deterministic cache order (L1.0 … L2).
// It stops early when fn returns false. Caches whose presence bit proves
// stale (no resident version after settling) have the bit cleared, keeping
// the filter tight without a dedicated invalidation hook at every protocol
// transition.
func (h *Hierarchy) sweepVersions(lineAddr Addr, fn func(*cache, *Line) bool) {
	mask := h.holders(lineAddr)
	for wi := 0; wi < presWords; wi++ {
		word := mask[wi]
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			c := h.all[i]
			s := c.set(lineAddr)
			n := 0
			for w := range s {
				if s[w].St != Invalid && s[w].Tag == lineAddr {
					n++
					if !fn(c, &s[w]) {
						return
					}
				}
			}
			if n == 0 {
				h.clearPresent(c, lineAddr)
			}
		}
	}
}

// SetTracker installs the per-transaction activity tracker (may be nil).
func (h *Hierarchy) SetTracker(t Tracker) { h.tracker = t }

// Stats returns the accumulated event counters.
func (h *Hierarchy) Stats() *Stats { return &h.stats }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LC returns the latest committed VID.
func (h *Hierarchy) LC() vid.V { return h.lc }

// CurrentEpoch returns the current VID epoch.
func (h *Hierarchy) CurrentEpoch() uint64 { return h.epoch }

// Src identifies the level of the hierarchy that served an operation, for
// latency attribution (internal/prof).
type Src uint8

const (
	// SrcL1 is a hit in the requester's own L1 (the default: operations
	// that abort before being served also report SrcL1, matching their
	// L1-lookup latency).
	SrcL1 Src = iota
	// SrcPeer is a transfer from a peer core's L1 over the bus.
	SrcPeer
	// SrcL2 is a hit in the shared L2.
	SrcL2
	// SrcMem is a fill from main memory.
	SrcMem
)

// Result reports the outcome of a memory-system operation.
type Result struct {
	// Lat is the operation latency in cycles.
	Lat int64
	// Conflict indicates the operation detected misspeculation; the
	// caller must abort all uncommitted transactions (§4.4).
	Conflict bool
	// Cause describes the misspeculation for diagnostics.
	Cause string
	// NeedsSLA reports that this speculative load must send a
	// speculative load acknowledgment when its branch resolves (§5.1).
	NeedsSLA bool
	// Src is the hierarchy level that served the operation.
	Src Src
}

// allCaches returns every cache (L1s in core order, then the L2). The slice
// is built once in New and must not be mutated by callers.
func (h *Hierarchy) allCaches() []*cache { return h.all }

// Load performs a load by the given core. a is the VID of the issuing
// transaction (vid.NonSpec for non-speculative execution).
func (h *Hierarchy) Load(core int, addr Addr, a vid.V) (uint64, Result) {
	h.sanBegin(addr)
	val, res := h.load(core, addr, a, true)
	h.sanCheck()
	if h.histLoadLat != nil {
		h.histLoadLat.Observe(uint64(res.Lat))
	}
	return val, res
}

// WrongPathLoad performs a squashed branch-speculative load (§5.1): data
// moves through the caches, but no line is marked with the VID. The marks
// that *would* have been made are shadow-recorded to count the false
// misspeculations SLAs avoid (Table 1).
func (h *Hierarchy) WrongPathLoad(core int, addr Addr, a vid.V) (uint64, Result) {
	h.stats.WrongPathLoads++
	if h.tracer.Enabled(obs.CatSLA) {
		h.tracer.Emit(obs.Event{Kind: obs.KWrongPath, Core: int32(core), Addr: uint64(LineAddr(addr)), VID: uint64(a)})
	}
	h.sanBegin(addr)
	// With SLAs disabled, prior systems mark lines directly from squashed
	// loads (§7.2), risking false misspeculation.
	mark := !h.cfg.SLAEnabled
	val, res := h.load(core, addr, a, mark)
	h.sanCheck()
	return val, res
}

func (h *Hierarchy) load(core int, addr Addr, a vid.V, mark bool) (uint64, Result) {
	la := LineAddr(addr)
	spec := a != vid.NonSpec
	eff := a
	if !spec {
		eff = h.lc
	}
	res := Result{Lat: h.cfg.L1Lat}
	if spec && mark {
		h.stats.SpecLoads++
	}
	l1 := h.l1s[core]

	if ln := l1.findHit(la, eff, false); ln != nil {
		h.stats.L1Hits++
		l1.hits++
		l1.touch(ln)
		val := ln.Word(addr)
		if spec {
			h.localLoadMark(core, l1, ln, la, a, mark, &res)
		}
		h.checkOverflow(&res)
		return val, res
	}

	h.stats.BusMessages++
	res.Lat += h.cfg.BusLat
	if h.tracer.Enabled(obs.CatBus) {
		h.tracer.Emit(obs.Event{Kind: obs.KBusRequest, Core: int32(core), Addr: uint64(la), VID: uint64(a), Note: "load"})
	}

	if owner, oc := h.snoop(core, la, eff); owner != nil {
		if oc == h.l2 {
			res.Lat += h.cfg.L2Lat
			h.stats.L2Hits++
			res.Src = SrcL2
		} else {
			h.stats.PeerTransfers++
			res.Src = SrcPeer
			if h.prof.Enabled() {
				h.prof.LinePeer(la)
			}
		}
		oc.hits++
		val := owner.Word(addr)
		h.remoteLoadMark(core, owner, oc, la, a, eff, mark, &res)
		h.checkOverflow(&res)
		return val, res
	}

	// Missed every cache: fill from main memory.
	res.Lat += h.cfg.L2Lat + h.cfg.MemLat
	h.stats.MemReads++
	res.Src = SrcMem
	data := h.mem.read(la)
	var val uint64
	{
		tmp := Line{Tag: la, Data: data}
		val = tmp.Word(addr)
	}
	nl := Line{Tag: la, St: Exclusive, Epoch: h.epoch, SettledLC: h.lc, Data: data}
	switch {
	case h.anySpecModAbove(la, eff):
		// §5.4: a speculatively modified version exists with a higher
		// modVID, so the non-speculative S-O copy this request should
		// have hit was overflowed to memory. Reconstitute it.
		if !mark {
			// A squashed load leaves no versioned metadata behind.
			h.checkOverflow(&res)
			return val, res
		}
		nl.St = SpecOwned
		nl.Mod = 0
		nl.High = eff + 1
	case spec && mark:
		nl.St = SpecExclusive
		nl.High = a
		h.trackLoad(core, la, &res)
	}
	installed := h.install(l1, nl)
	if spec && !mark {
		h.shadowMark(core, installed, la, a)
	}
	h.checkOverflow(&res)
	return val, res
}

// localLoadMark applies speculative-read marking to a line that hit in the
// requester's own L1.
func (h *Hierarchy) localLoadMark(core int, l1 *cache, ln *Line, la Addr, a vid.V, mark bool, res *Result) {
	if !mark {
		h.shadowMark(core, ln, la, a)
		return
	}
	switch {
	case !ln.St.Speculative():
		// Writable (M or E) access must be gained before the line can
		// be marked (§4.2): upgrade away shared copies if necessary.
		if ln.St == Shared || ln.St == Owned {
			h.stats.BusMessages++
			res.Lat += h.cfg.BusLat
			if h.tracer.Enabled(obs.CatBus) {
				h.tracer.Emit(obs.Event{Kind: obs.KBusRequest, Core: int32(core), Addr: uint64(la), VID: uint64(a), Note: "upgrade"})
			}
			dirty := h.invalidateNonSpecCopies(la, ln)
			if ln.St == Owned || dirty {
				// The line (or a just-invalidated peer copy — a local
				// Shared copy can coexist with a remote Owned one)
				// holds data memory does not: the upgrade must land
				// on Modified or the dirty data would be dropped on
				// a clean eviction. Found by internal/check.
				ln.St = Modified
			} else {
				ln.St = Exclusive
			}
		}
		h.specReadTransition(ln, a)
		if h.cfg.InjectBug != BugStaleCopyOnConvert {
			dropLocalSpecSharedCopies(l1, ln)
		}
		h.trackLoad(core, la, res)
	case ln.St.latest():
		if a > ln.High {
			ln.High = a
		}
		h.trackLoad(core, la, res)
	default: // S-O or S-S: serving a bounded old version; no bump needed
		h.trackLoad(core, la, res)
	}
}

// remoteLoadMark handles a load served by a peer L1 or by the L2.
func (h *Hierarchy) remoteLoadMark(core int, owner *Line, oc *cache, la Addr, a, eff vid.V, mark bool, res *Result) {
	l1 := h.l1s[core]
	spec := a != vid.NonSpec
	if !mark {
		h.shadowMark(core, owner, la, a)
		return
	}
	switch {
	case !owner.St.Speculative():
		if spec {
			// Migrate the line to the requester with writable
			// access, then mark it (§4.2). The transition happens
			// before the install so that a stale S-S(0,·) copy in
			// the requester merges with the arriving owner instead
			// of lingering and double-serving its VID range.
			moved := h.migrate(la, owner, oc)
			if h.cfg.InjectBug == BugDupVersionOnMigrate {
				// Original PR 2 bug: install while still
				// non-speculative (no merge with a resident S-S
				// copy of version 0), then transition in place.
				installed := h.install(l1, moved)
				h.specReadTransition(installed, a)
				h.trackLoad(core, la, res)
				return
			}
			h.specReadTransition(&moved, a)
			h.install(l1, moved)
			h.trackLoad(core, la, res)
			return
		}
		// Classic MOESI read sharing / refill.
		if oc == h.l2 {
			moved := *owner
			owner.St = Invalid
			h.install(l1, moved)
			return
		}
		cp := *owner
		switch owner.St {
		case Modified:
			owner.St = Owned
			cp.St = Shared
		case Exclusive:
			owner.St = Shared
			cp.St = Shared
		default:
			cp.St = Shared
		}
		h.install(l1, cp)
	case owner.St.latest():
		// The owner's highVID tracks the globally highest accessor,
		// so it must be bumped here; the requester keeps an S-S copy
		// bounded at a+1 so that *later* VIDs re-snoop and bump the
		// owner again rather than being served silently.
		if eff > owner.High {
			owner.High = eff
		}
		cp := *owner
		cp.St = SpecShared
		cp.High = eff + 1
		h.install(l1, cp)
		if spec {
			h.trackLoad(core, la, res)
		}
	default: // SpecOwned: bounded old version; copy its exact range
		cp := *owner
		cp.St = SpecShared
		h.install(l1, cp)
		if spec {
			h.trackLoad(core, la, res)
		}
	}
}

// specReadTransition converts a writable non-speculative line into its
// speculatively read counterpart: M -> S-M(0,a), E -> S-E(0,a) (Figure 4).
func (h *Hierarchy) specReadTransition(ln *Line, a vid.V) {
	old := ln.St
	switch ln.St {
	case Modified, Owned:
		ln.St = SpecModified
	case Exclusive, Shared:
		ln.St = SpecExclusive
	default:
		panic(fmt.Sprintf("memsys: specReadTransition on %v", ln))
	}
	ln.Mod = 0
	ln.High = a
	ln.Epoch = h.epoch
	ln.SettledLC = h.lc
	if h.tracer.Enabled(obs.CatCache) {
		h.tracer.Emit(obs.Event{Kind: obs.KStateChange, Core: -1, Addr: uint64(ln.Tag), VID: uint64(a),
			Note: old.String() + "->" + ln.St.String()})
	}
}

// shadowMark records what a squashed wrong-path load would have marked.
func (h *Hierarchy) shadowMark(core int, ln *Line, la Addr, a vid.V) {
	if a == vid.NonSpec {
		return
	}
	if ln.shadow(h.epoch) < a {
		ln.ShadowHigh = a
		ln.ShadowEpoch = h.epoch
	}
	if h.tracker != nil {
		h.tracker.WrongPath(core, la)
	}
}

// trackLoad records the speculative load in the transaction's read set and
// decides whether an SLA must be sent (§5.1): only the first access to a
// line by a given transaction needs one.
func (h *Hierarchy) trackLoad(core int, la Addr, res *Result) {
	if h.tracker == nil {
		return
	}
	if already := h.tracker.SpecTouch(core, la, false); !already {
		res.NeedsSLA = true
		h.stats.SLAsSent++
		if h.tracer.Enabled(obs.CatSLA) {
			h.tracer.Emit(obs.Event{Kind: obs.KSLASent, Core: int32(core), Addr: uint64(la)})
		}
	}
}

// Store performs a store by the given core with transaction VID a.
func (h *Hierarchy) Store(core int, addr Addr, val uint64, a vid.V) Result {
	h.sanBegin(addr)
	la := LineAddr(addr)
	spec := a != vid.NonSpec
	eff := a
	if !spec {
		eff = h.lc
	}
	res := Result{Lat: h.cfg.L1Lat}
	if spec {
		h.stats.SpecStores++
	}

	// Dependence check (§4.3): a store must be the latest access to the
	// line; any version with a higher accessor VID means a later
	// transaction already read or wrote it.
	maxHigh, maxShadow := h.scanHighs(la)
	if maxShadow > eff && maxHigh <= eff {
		// Only a squashed wrong-path load "accessed" the line later:
		// without SLAs this would be a false misspeculation (§5.1).
		h.stats.AvoidedAborts++
		if h.tracker != nil {
			h.tracker.AvoidedAbort(core)
		}
		if h.tracer.Enabled(obs.CatSLA) {
			h.tracer.Emit(obs.Event{Kind: obs.KSLAAvoided, Core: int32(core), Addr: uint64(la), VID: uint64(a)})
		}
		h.clearShadows(la)
	}
	if maxHigh > eff {
		res.Conflict = true
		res.Cause = fmt.Sprintf("store vid %d to line %#x already accessed by vid %d", a, la, maxHigh)
		if h.prof.Enabled() {
			h.prof.LineConflict(la)
		}
		if h.conflicts.Enabled() {
			// The storing transaction is the aborter: its late store
			// invalidates the later transaction that already read or
			// wrote the line (the victim of the rollback).
			h.conflicts.Record(h.seqOf(a), h.seqOf(maxHigh), uint64(la), metrics.EdgeConflict)
		}
		return res
	}

	l1 := h.l1s[core]
	hit := l1.findHit(la, eff, false)
	oc := l1
	if hit != nil && hit.St == SpecShared {
		// An S-S copy cannot serve a store: the write must reach the
		// owning version (whose highVID carries the global accessor
		// mark) over the bus. The stale copy is capped below.
		hit = nil
	}
	if hit != nil {
		h.stats.L1Hits++
		l1.hits++
	} else {
		h.stats.BusMessages++
		res.Lat += h.cfg.BusLat
		if h.tracer.Enabled(obs.CatBus) {
			h.tracer.Emit(obs.Event{Kind: obs.KBusRequest, Core: int32(core), Addr: uint64(la), VID: uint64(a), Note: "store"})
		}
		hit, oc = h.snoop(core, la, eff)
		switch {
		case hit == nil:
		case oc == h.l2:
			res.Lat += h.cfg.L2Lat
			h.stats.L2Hits++
			res.Src = SrcL2
			oc.hits++
		default:
			h.stats.PeerTransfers++
			res.Src = SrcPeer
			if h.prof.Enabled() {
				h.prof.LinePeer(la)
			}
			oc.hits++
		}
	}

	var data [LineSize]byte
	fromMem := hit == nil
	if fromMem {
		res.Lat += h.cfg.L2Lat + h.cfg.MemLat
		h.stats.MemReads++
		res.Src = SrcMem
		data = h.mem.read(la)
	} else {
		data = hit.Data
	}

	if spec && h.tracker != nil {
		h.tracker.SpecTouch(core, la, true)
	}

	switch {
	case !spec:
		// Plain MOESI write: gain Modified in the requester. Lingering
		// S-S copies of the committed version being overwritten must
		// not survive to serve stale data; dropping them is always
		// safe.
		h.dropSpecSharedCopies(la)
		var ln *Line
		switch {
		case fromMem:
			ln = h.install(l1, Line{Tag: la, St: Modified, Epoch: h.epoch, SettledLC: h.lc, Data: data})
		case oc == l1 && (hit.St == Modified || hit.St == Exclusive):
			ln = hit
			ln.St = Modified
			l1.touch(ln)
		default:
			if hit.St.Speculative() {
				panic(fmt.Sprintf("memsys: non-speculative store hit speculative %v despite maxHigh check", hit))
			}
			moved := h.migrate(la, hit, oc)
			moved.St = Modified
			ln = h.install(l1, moved)
		}
		ln.SetWord(addr, val)

	case hit != nil && hit.St.latest() && hit.Mod == a:
		// The transaction re-writes its own version: write in place,
		// migrating it to this core if another thread of the same
		// transaction created it (§5.2 allows thread migration).
		// S-S copies of this version elsewhere are now stale; capping
		// their range at a empties it, so peers re-snoop.
		if h.cfg.InjectBug != BugStaleCopyOnConvert {
			h.capSpecSharedCopies(la, a, a, hit)
		}
		if oc == l1 {
			hit.SetWord(addr, val)
			l1.touch(hit)
		} else {
			moved := *hit
			hit.St = Invalid
			moved.SetWord(addr, val)
			h.install(l1, moved)
		}

	default:
		// Create a new version S-M(a,a); the unmodified copy remains
		// in S-O with highVID = a (§4.1, Figure 4).
		var oldMod vid.V
		switch {
		case fromMem:
			h.install(l1, Line{Tag: la, St: SpecOwned, Mod: 0, High: a, Epoch: h.epoch, SettledLC: h.lc, Data: data})
		case hit.St.Speculative():
			// S-M or S-E; S-O/S-S are excluded by the maxHigh check.
			oldMod = hit.Mod
			hit.St = SpecOwned
			hit.High = a
			h.capSpecSharedCopies(la, oldMod, a, hit)
		default:
			// Non-speculative version: gain writable access, then
			// keep it as the unmodified S-O(0,a) copy.
			if oc == l1 && (hit.St == Modified || hit.St == Exclusive) {
				hit.St = SpecOwned
				hit.Mod = 0
				hit.High = a
				hit.Epoch = h.epoch
				hit.SettledLC = h.lc
				if h.cfg.InjectBug != BugStaleCopyOnConvert {
					dropLocalSpecSharedCopies(l1, hit)
				}
			} else {
				moved := h.migrate(la, hit, oc)
				moved.St = SpecOwned
				moved.Mod = 0
				moved.High = a
				h.install(l1, moved)
			}
		}
		nl := Line{Tag: la, St: SpecModified, Mod: a, High: a, Epoch: h.epoch, SettledLC: h.lc, Data: data}
		nl.SetWord(addr, val)
		h.install(l1, nl)
		h.stats.VersionsCreated++
		if h.tracer.Enabled(obs.CatVersion) {
			h.tracer.Emit(obs.Event{Kind: obs.KVersionCreate, Core: int32(core), Addr: uint64(la), VID: uint64(a)})
		}
	}

	h.checkOverflow(&res)
	h.sanCheck()
	if h.histStoreLat != nil {
		h.histStoreLat.Observe(uint64(res.Lat))
	}
	return res
}

// SLA replays a speculative load acknowledgment (§5.1): it verifies that the
// value originally loaded by the (now branch-committed) load still matches
// the version the VID would access, then marks the line. A mismatch means an
// intervening conflicting store occurred and triggers misspeculation.
func (h *Hierarchy) SLA(core int, addr Addr, a vid.V, expected uint64) Result {
	h.sanBegin(addr)
	val, res := h.load(core, addr, a, true)
	h.sanCheck()
	if val != expected {
		res.Conflict = true
		res.Cause = fmt.Sprintf("SLA mismatch at %#x vid %d: loaded %#x, now %#x", addr, a, expected, val)
		if h.prof.Enabled() {
			h.prof.LineConflict(LineAddr(addr))
		}
		if h.conflicts.Enabled() {
			// The conflicting store already retired, so hardware cannot
			// name the aborter; the victim is the acknowledging load's
			// transaction.
			h.conflicts.Record(0, h.seqOf(a), uint64(LineAddr(addr)), metrics.EdgeSLA)
		}
	}
	return res
}

// Commit atomically group-commits transaction v across all caches by
// advancing the LC VID register (§5.3); individual lines settle lazily.
// Commits must occur consecutively (§4.7).
func (h *Hierarchy) Commit(v vid.V) Result {
	if v != h.lc+1 {
		panic(fmt.Sprintf("memsys: commit of vid %d but LC VID is %d; commits must be consecutive", v, h.lc))
	}
	h.lc = v
	h.gen++ // resident lines may now carry pending commits; force re-scans
	h.stats.Commits++
	h.stats.BusMessages++
	lat := h.cfg.BusLat
	frames := 0
	if h.cfg.EagerCommit {
		// Naive commit processing (§4.4, §7.1): every cache frame must
		// be examined and transitioned on every commit, whether or not
		// it holds speculative state — the cost Vachharajani's
		// proposal pays and lazy commits avoid.
		for _, c := range h.allCaches() {
			frames += c.numSets * c.ways
			c.forEach(func(*Line) {}) // settle everything now
		}
		lat += int64(frames / 8) // 8 frames examined per cycle
	}
	if h.tracer.Enabled(obs.CatCommit) {
		h.tracer.Emit(obs.Event{Kind: obs.KCommit, Core: -1, VID: uint64(v), Arg: uint64(frames)})
	}
	return Result{Lat: lat}
}

// AbortAll flushes every uncommitted transaction from the cache system
// (§4.4). Pending lazy commits are settled first so committed-but-unsettled
// lines survive. The LC VID is unchanged; software restarts the aborted
// transactions reusing the VIDs above LC.
func (h *Hierarchy) AbortAll() Result {
	h.gen++ // the eager sweep rewrites lines under every set's stamp
	h.stats.Aborts++
	h.stats.BusMessages++
	if h.tracer.Enabled(obs.CatCommit) {
		h.tracer.Emit(obs.Event{Kind: obs.KAbortSweep, Core: -1, VID: uint64(h.lc)})
	}
	for _, c := range h.allCaches() {
		c.forEach(func(ln *Line) {
			ln.applyAbort()
			ln.ShadowHigh, ln.ShadowEpoch = 0, 0
		})
	}
	h.pendingOverflow = false
	if h.cfg.Sanitize {
		// The abort repaired any §5.4 overflow tear; the whole
		// hierarchy must be consistent again.
		h.san.muted = false
		if err := h.CheckInvariants(); err != nil {
			panic(err)
		}
	}
	return Result{Lat: h.cfg.BusLat}
}

// VIDReset begins a new VID epoch (§4.6). It is only legal once every
// outstanding transaction has committed; the software allocator enforces
// this. Lines from the previous epoch settle as fully committed on next
// touch.
func (h *Hierarchy) VIDReset() Result {
	h.epoch++
	h.lc = 0
	h.gen++ // every line's epoch is now stale; force re-scans
	h.stats.VIDResets++
	h.stats.BusMessages++
	if h.tracer.Enabled(obs.CatTxn) {
		h.tracer.Emit(obs.Event{Kind: obs.KVIDReset, Core: -1, Arg: h.epoch})
	}
	return Result{Lat: h.cfg.BusLat}
}

// snoop broadcasts a request for lineAddr on the bus and returns the unique
// responding version (S-S copies do not respond, §4.1). For non-speculative
// data several Shared copies may exist; the highest-authority one responds.
// Only caches whose snoop-filter presence bit is set are visited: a clear
// bit proves the cache holds no version of the line, so it could not have
// responded to the broadcast anyway.
//
//hmtx:hotpath
func (h *Hierarchy) snoop(core int, lineAddr Addr, eff vid.V) (*Line, *cache) {
	var best *Line
	var bestCache *cache
	consider := func(ln *Line, c *cache) {
		if best == nil {
			best, bestCache = ln, c
			return
		}
		if best.St.Speculative() || ln.St.Speculative() {
			// Two speculative responders are only legal if they are
			// copies of the same version (same modVID), e.g. after a
			// §5.4 S-O reconstitution; prefer the wider range.
			if best.Mod != ln.Mod || !best.St.Speculative() || !ln.St.Speculative() {
				panic(fmt.Sprintf("memsys: two snoop responders for %#x vid %d: %v and %v", lineAddr, eff, best, ln))
			}
			if ln.High > best.High || stateRank(ln.St) > stateRank(best.St) {
				best, bestCache = ln, c
			}
			return
		}
		if stateRank(ln.St) > stateRank(best.St) {
			best, bestCache = ln, c
		}
	}
	mask := h.holders(lineAddr)
	for wi := 0; wi < presWords; wi++ {
		word := mask[wi]
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i == core {
				continue // the requester's own L1 does not respond
			}
			c := h.all[i]
			if ln := c.findHit(lineAddr, eff, true); ln != nil {
				// consider never leaves snoop, so the closure and its frame
				// stay on the stack; hotalloc cannot resolve calls through a
				// function value, hence the waiver.
				consider(ln, c) //hmtx:allocok non-escaping closure called through a local variable
			}
		}
	}
	return best, bestCache
}

// migrate removes every non-speculative copy of lineAddr from the system and
// returns a writable line (M if any copy was dirty, E otherwise) ready to be
// installed in the requester's L1.
func (h *Hierarchy) migrate(lineAddr Addr, owner *Line, oc *cache) Line {
	moved := *owner
	dirty := owner.St == Modified || owner.St == Owned
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		if v.St.Speculative() {
			return true
		}
		if v.St == Modified || v.St == Owned {
			dirty = true
		}
		v.St = Invalid
		return true
	})
	if dirty {
		moved.St = Modified
	} else {
		moved.St = Exclusive
	}
	return moved
}

// invalidateNonSpecCopies invalidates every non-speculative copy of lineAddr
// except keep (a local upgrade, §4.2). It reports whether any invalidated
// copy was dirty, in which case the surviving line inherits responsibility
// for the data and must end up in a dirty state.
func (h *Hierarchy) invalidateNonSpecCopies(lineAddr Addr, keep *Line) (dirty bool) {
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		if v != keep && !v.St.Speculative() {
			if v.St == Modified || v.St == Owned {
				dirty = true
			}
			v.St = Invalid
		}
		return true
	})
	return dirty
}

// capSpecSharedCopies bounds every S-S copy of the version with modVID
// oldMod at the new store's VID, so stale copies cannot serve VIDs that must
// observe the new version.
func (h *Hierarchy) capSpecSharedCopies(lineAddr Addr, oldMod, a vid.V, except *Line) {
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		if v != except && v.St == SpecShared && v.Mod == oldMod && v.High > a {
			v.High = a
		}
		return true
	})
}

// dropLocalSpecSharedCopies invalidates same-cache S-S copies of the version
// keep now owns. An in-place conversion of a non-speculative line into a
// speculative owner of version 0 would otherwise leave a stale local
// S-S(0,·) copy whose serve range overlaps the new owner's, double-serving
// the VIDs both cover. (Dropping an S-S copy is always safe.)
func dropLocalSpecSharedCopies(c *cache, keep *Line) {
	s := c.set(keep.Tag)
	for i := range s {
		v := &s[i]
		if v.St == Invalid || v.Tag != keep.Tag {
			continue
		}
		if v != keep && v.St == SpecShared && v.Mod == keep.Mod {
			v.St = Invalid
		}
	}
}

// dropSpecSharedCopies invalidates every S-S copy of lineAddr.
func (h *Hierarchy) dropSpecSharedCopies(lineAddr Addr) {
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		if v.St == SpecShared {
			v.St = Invalid
		}
		return true
	})
}

// scanHighs returns the highest accessor VID of any speculative version of
// lineAddr anywhere in the hierarchy, and the highest wrong-path shadow
// mark. Only latest versions (S-M/S-E) carry true accessor marks: the
// highVID of S-O/S-S lines is a version-range bound (the modVID of the next
// version, or a re-snoop bound on copies), and that next version's own
// highVID subsumes it. This runs on every store, so it iterates the
// presence mask inline rather than through sweepVersions.
func (h *Hierarchy) scanHighs(lineAddr Addr) (maxHigh, maxShadow vid.V) {
	mask := h.holders(lineAddr)
	for wi := 0; wi < presWords; wi++ {
		word := mask[wi]
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			c := h.all[i]
			s := c.set(lineAddr)
			n := 0
			for w := range s {
				v := &s[w]
				if v.St == Invalid || v.Tag != lineAddr {
					continue
				}
				n++
				if v.St.latest() && v.High > maxHigh {
					maxHigh = v.High
				}
				if sh := v.shadow(h.epoch); sh > maxShadow {
					maxShadow = sh
				}
			}
			if n == 0 {
				h.clearPresent(c, lineAddr)
			}
		}
	}
	return maxHigh, maxShadow
}

func (h *Hierarchy) clearShadows(lineAddr Addr) {
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		v.ShadowHigh, v.ShadowEpoch = 0, 0
		return true
	})
}

// anySpecModAbove reports whether any cache holds a speculatively modified
// version of lineAddr with modVID above eff — the §5.4 "this address was
// speculatively modified" snoop assertion.
func (h *Hierarchy) anySpecModAbove(lineAddr Addr, eff vid.V) bool {
	found := false
	h.sweepVersions(lineAddr, func(_ *cache, v *Line) bool {
		if v.St.Speculative() && v.Mod > eff {
			found = true
			return false
		}
		return true
	})
	return found
}

// install places ln into cache c, handling the eviction cascade: L1 victims
// that carry state flow to the L2; L2 victims flow to memory or force an
// abort (§5.4). It returns a pointer to the resident line.
func (h *Hierarchy) install(c *cache, ln Line) *Line {
	ln.lru = 0
	// The line may carry a pending lazy commit (e.g. a victim evicted
	// after the transactions that marked it committed): settle it first;
	// a fully committed superseded version simply disappears.
	ln.settle(h.epoch, h.lc, h.cfg.VIDSpace.Max())
	if ln.St == Invalid {
		return nil
	}
	victim, evicted := c.insert(ln)
	if evicted {
		h.placeVictim(victim, c)
	}
	// Locate the resident line (insert may have merged with a copy).
	s := c.set(ln.Tag)
	for i := range s {
		v := &s[i]
		if v.St == Invalid || v.Tag != ln.Tag {
			continue
		}
		if v.St.Speculative() == ln.St.Speculative() && v.Mod == ln.Mod {
			return v
		}
	}
	// Format via a copy: taking &ln here would make the parameter escape
	// and put a Line-sized heap allocation on every install call.
	bad := ln
	panic(fmt.Sprintf("memsys: %s: installed line %v not found", c.name, &bad))
}

// placeVictim handles an evicted line. Clean non-speculative lines and S-S
// copies vanish silently; everything else evicted from an L1 moves to the
// L2. At the last level, dirty non-speculative lines and S-O copies with
// modVID 0 write back to memory (§5.4); any other speculative line forces an
// abort.
func (h *Hierarchy) placeVictim(v Line, from *cache) {
	h.sanTouch(v.Tag)
	if v.St == SpecShared {
		return // a bounded copy; the owning version lives elsewhere
	}
	if from != h.l2 {
		// L1 victims — clean or dirty, speculative or not — move to
		// the L2 (clean-victim caching keeps hot read-only data such
		// as shared tables from round-tripping to memory).
		h.install(h.l2, v)
		return
	}
	switch {
	case v.St == Shared || v.St == Exclusive:
		return // clean, memory holds the same data
	case v.St == Modified || v.St == Owned:
		h.mem.write(v.Tag, v.Data)
		h.stats.MemWrites++
	case v.St == SpecOwned && v.Mod == 0:
		h.mem.write(v.Tag, v.Data)
		h.stats.MemWrites++
		h.stats.SOWritebacks++
		if h.tracer.Enabled(obs.CatVersion) {
			h.tracer.Emit(obs.Event{Kind: obs.KSOWriteback, Core: -1, Addr: uint64(v.Tag), VID: uint64(v.High)})
		}
	default:
		if v.St == SpecModified && v.Mod == 0 {
			// The version was created before any speculative store
			// (modVID 0), so its data is committed — and dirty, or the
			// line would be S-E. The forced abort below erases the
			// speculative read marks but must not lose the data: write
			// it back first, as §5.4 does for non-speculative S-O
			// copies. Found by internal/check.
			h.mem.write(v.Tag, v.Data)
			h.stats.MemWrites++
		}
		h.stats.OverflowAborts++
		h.pendingOverflow = true
		if h.prof.Enabled() {
			h.prof.LineOverflow(v.Tag)
		}
		if h.conflicts.Enabled() {
			// Capacity, not contention: the machine evicted the victim
			// transaction's speculative line past the last-level cache.
			h.conflicts.Record(0, h.seqOf(v.Mod), uint64(v.Tag), metrics.EdgeOverflow)
		}
		if h.tracer.Enabled(obs.CatOverflow) {
			h.tracer.Emit(obs.Event{Kind: obs.KOverflowAbort, Core: -1, Addr: uint64(v.Tag), VID: uint64(v.Mod)})
		}
		// The dropped line tears the version chain until the forced
		// abort repairs it: suppress invariant checks in between.
		h.san.muted = true
	}
}

func (h *Hierarchy) checkOverflow(res *Result) {
	if h.pendingOverflow {
		res.Conflict = true
		res.Cause = "speculative line overflowed the last-level cache (§5.4)"
		h.pendingOverflow = false
	}
}

// PeekWord returns the committed value at addr without affecting timing or
// state. It is a host-side helper for verification and workload setup.
func (h *Hierarchy) PeekWord(addr Addr) uint64 {
	la := LineAddr(addr)
	var best *Line
	bestRank := -1
	for _, c := range h.allCaches() {
		if ln := c.findHit(la, h.lc, false); ln != nil {
			if r := stateRank(ln.St); r > bestRank {
				best, bestRank = ln, r
			}
		}
	}
	if best != nil {
		return best.Word(addr)
	}
	return h.mem.word(addr)
}

// PokeWord writes the committed value at addr directly, bypassing timing.
// It must not be used while the line is speculatively accessed.
func (h *Hierarchy) PokeWord(addr Addr, val uint64) {
	h.sanBegin(addr)
	la := LineAddr(addr)
	h.sweepVersions(la, func(_ *cache, v *Line) bool {
		if v.St.Speculative() {
			panic(fmt.Sprintf("memsys: PokeWord(%#x) on speculatively accessed line %v", addr, v))
		}
		v.SetWord(addr, val)
		return true
	})
	h.mem.setWord(addr, val)
	h.sanCheck()
}

// Versions returns copies of every valid version of the line containing
// addr held by the given cache (0..Cores-1 are the L1s, Cores is the L2),
// for tests and the cachetrace example.
func (h *Hierarchy) Versions(cacheIdx int, addr Addr) []Line {
	return h.AppendVersions(nil, cacheIdx, addr)
}

// AppendVersions is Versions appending to dst, so a caller that reuses dst
// does not allocate.
func (h *Hierarchy) AppendVersions(dst []Line, cacheIdx int, addr Addr) []Line {
	c := h.all[cacheIdx]
	la := LineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].St != Invalid && s[i].Tag == la {
			dst = append(dst, s[i])
		}
	}
	return dst
}

// FlushCommitted writes every dirty non-speculative line back to memory so
// that main memory holds the full committed image. It panics if speculative
// lines remain; call it only after all transactions have committed.
func (h *Hierarchy) FlushCommitted() {
	for _, c := range h.allCaches() {
		c.forEach(func(ln *Line) {
			if ln.St.Speculative() {
				panic(fmt.Sprintf("memsys: FlushCommitted with live speculative line %v", ln))
			}
			if ln.St == Modified || ln.St == Owned {
				h.mem.write(ln.Tag, ln.Data)
				h.stats.MemWrites++
			}
		})
	}
}
