package memsys

import (
	"fmt"
	"math/bits"

	"hmtx/internal/vid"
)

// cache is one cache level: a set-associative array of Lines. Multiple
// versions of the same line (same Tag, different VID ranges) may occupy
// different ways of the same set (§4.1).
//
// Per-access work in this file is allocation-free: lookups iterate the ways
// of one set inline instead of materialising version slices, and a per-set
// generation stamp skips the settle scan entirely when nothing committed
// since the set was last scanned for the same tag (DESIGN.md §11). The only
// allocation is a set's frames, on its first fill (insert).
type cache struct {
	name    string
	id      int // index into the hierarchy's cache array; bit in presence masks
	hier    *Hierarchy
	numSets int
	ways    int
	hits    uint64 // requests this cache served (per-cache stats registry)

	// sets holds the frames of each set. A set stays nil until insert
	// first fills it: a run touches a small fraction of the 32 MB L2, so
	// storage and every whole-cache walk scale with the touched sets
	// (DESIGN.md §11). A nil set holds no valid line, so lookups on it miss
	// exactly as on a set of Invalid frames.
	sets [][]Line

	// meta is the per-set bookkeeping, one entry for every set whether or
	// not its frames are allocated.
	meta []setMeta

	// dirty has bit si set when set si may have changed since specCount
	// last counted it. set() and forEach — the only ways to reach a
	// resident frame — set the bit, so no state transition needs its own
	// hook; spec is the cache's speculative-frame total as of that count.
	dirty []uint64
	spec  uint64

	// lruClock is this cache's private recency counter. Victim selection
	// only ever compares lru stamps of lines within one set of one cache,
	// so a per-cache clock picks the same victims as the former
	// hierarchy-global clock while keeping touch() free of cross-cache
	// shared state (the domain-sharded scheduler lets different cores'
	// L1 fast paths touch concurrently).
	lruClock uint64
}

// setMeta is the bookkeeping of one cache set.
type setMeta struct {
	// gen and tag implement the settle-skip fast path: gen holds the
	// hierarchy coherence generation (bumped on every Commit, VIDReset and
	// AbortAll) at which the set was last settle-scanned, and tag the line
	// address that scan was for. When both still match, every resident
	// version of that tag is already settled and the scan is a provable
	// no-op — the common case for consecutive L1 hits.
	gen uint64
	tag Addr
	// spec is the number of speculative frames in the set at its last
	// count (specCount).
	spec uint32
}

func newCache(name string, id, size, ways int, h *Hierarchy) *cache {
	numSets := size / (ways * LineSize)
	return &cache{
		name: name, id: id, hier: h, numSets: numSets, ways: ways,
		sets:  make([][]Line, numSets),
		meta:  make([]setMeta, numSets),
		dirty: make([]uint64, (numSets+63)/64),
	}
}

func (c *cache) setIndex(lineAddr Addr) int {
	return int((lineAddr / LineSize) % Addr(c.numSets))
}

// set returns the ways of the set holding lineAddr, with every resident
// version of lineAddr settled against pending lazy commits. Only versions of
// lineAddr itself are settled — other tags in the set keep their lazy state,
// exactly as before the generation-stamp fast path existed, so victim
// selection is unchanged.
//
//hmtx:hotpath
func (c *cache) set(lineAddr Addr) []Line {
	si := c.setIndex(lineAddr)
	s := c.sets[si]
	h := c.hier
	c.markDirty(si) // the caller may change any frame
	m := &c.meta[si]
	if m.gen == h.gen && m.tag == lineAddr {
		// No commit, VID reset or abort since this set was last scanned
		// for this tag, and every line entering a cache is settled at
		// install time — the scan below would be a pure no-op.
		return s
	}
	for i := range s {
		if s[i].St != Invalid && s[i].Tag == lineAddr {
			s[i].settle(h.epoch, h.lc, h.cfg.VIDSpace.Max())
		}
	}
	m.gen, m.tag = h.gen, lineAddr
	return s
}

// findHit returns the unique version of lineAddr that the effective request
// VID a hits under the rules of §4.1, or nil. If snoop is true, SpecShared
// copies do not respond (§4.1).
//
//hmtx:hotpath
func (c *cache) findHit(lineAddr Addr, a vid.V, snoop bool) *Line {
	s := c.set(lineAddr)
	var hit *Line
	for i := range s {
		ln := &s[i]
		if ln.St == Invalid || ln.Tag != lineAddr {
			continue
		}
		if snoop && ln.St == SpecShared {
			continue
		}
		ok := false
		switch {
		case !ln.St.Speculative():
			// A non-speculative line coexists with no speculative
			// versions (the first speculative access converts it),
			// so it serves every request.
			ok = true
		case ln.St.latest():
			ok = a >= ln.Mod
		case ln.St.superseded():
			ok = ln.Mod <= a && a < ln.High
		}
		if !ok {
			continue
		}
		if hit != nil {
			panic(fmt.Sprintf("memsys: %s: two versions hit for %#x vid %d: %v and %v",
				c.name, lineAddr, a, hit, ln))
		}
		hit = ln
	}
	return hit
}

// touch updates LRU bookkeeping for ln.
//
//hmtx:hotpath
func (c *cache) touch(ln *Line) {
	c.lruClock++
	ln.lru = c.lruClock
}

// victimClass ranks lines for eviction; lower evicts first. Non-speculative
// clean lines can be silently dropped; S-O lines with modVID 0 are
// prioritised among speculative lines because the last-level cache can
// legally overflow them to memory (§5.4).
func victimClass(l *Line) int {
	switch {
	case l.St == Invalid:
		return 0
	case l.St == Shared || l.St == Exclusive:
		return 1
	case l.St == Modified || l.St == Owned:
		return 2
	case l.St == SpecShared:
		return 3 // a copy; dropping it is always safe
	case l.St == SpecOwned && l.Mod == 0:
		return 4
	default:
		return 5
	}
}

// pickVictim chooses a way of the set holding lineAddr to evict. Sibling
// versions of lineAddr itself are eligible but dispreferred: when a hot line
// accumulates many live versions they spill to the next level rather than
// blocking the insert.
func (c *cache) pickVictim(lineAddr Addr) *Line {
	s := c.set(lineAddr)
	var best *Line
	bestClass := 99
	for i := range s {
		ln := &s[i]
		cl := victimClass(ln)
		if ln.St != Invalid && ln.Tag == lineAddr {
			cl += 10 // strongly prefer evicting unrelated lines
		}
		if cl < bestClass || (cl == bestClass && (best == nil || ln.lru < best.lru)) {
			best, bestClass = ln, cl
		}
	}
	return best
}

// insert places ln into the cache, returning the evicted line if a valid
// line had to make room. The caller (the hierarchy) is responsible for
// handling the victim: writing it back, pushing it down a level, or
// aborting (§5.4). insert is the only way a valid line enters a cache, so it
// also maintains the hierarchy's snoop-filter presence bits.
func (c *cache) insert(ln Line) (victim Line, evicted bool) {
	h := c.hier
	// Merge with an existing copy of the same version: an S-S copy may
	// meet its S-O/S-M original when lines migrate between levels.
	s := c.set(ln.Tag)
	for i := range s {
		v := &s[i]
		if v.St == Invalid || v.Tag != ln.Tag {
			continue
		}
		if v.Mod == ln.Mod && v.St.Speculative() == ln.St.Speculative() {
			merged := *v
			if stateRank(ln.St) >= stateRank(v.St) {
				merged = ln
			}
			if ln.High > merged.High && merged.St.latest() {
				merged.High = ln.High
			}
			merged.lru = 0
			*v = merged
			c.touch(v)
			return Line{}, false
		}
	}
	if s == nil {
		// First fill of this set: allocate its frames (set() has already
		// stamped and dirtied it, exactly as for an allocated empty set).
		s = make([]Line, c.ways)
		c.sets[c.setIndex(ln.Tag)] = s
	}
	slot := c.pickVictim(ln.Tag)
	if slot.St != Invalid {
		victim, evicted = *slot, true
	}
	*slot = ln
	c.touch(slot)
	h.markPresent(c, ln.Tag)
	if evicted && victim.Tag != ln.Tag {
		// The victim's tag maps to the same set; if no sibling version
		// of it survives there, this cache no longer holds the address.
		still := false
		for i := range s {
			if s[i].St != Invalid && s[i].Tag == victim.Tag {
				still = true
				break
			}
		}
		if !still {
			h.clearPresent(c, victim.Tag)
		}
	}
	return victim, evicted
}

// stateRank orders states by authority for merging duplicate copies of one
// version: an owning state wins over a shared copy.
func stateRank(s State) int {
	switch s {
	case SpecShared, Shared:
		return 0
	case SpecOwned, Owned:
		return 1
	case SpecExclusive, Exclusive:
		return 2
	case SpecModified, Modified:
		return 3
	default:
		return -1
	}
}

// forEach applies fn to every valid line in the cache (settled first).
func (c *cache) forEach(fn func(*Line)) {
	h := c.hier
	for si, s := range c.sets {
		if s == nil {
			continue
		}
		c.markDirty(si)
		for i := range s {
			if s[i].St == Invalid {
				continue
			}
			s[i].settle(h.epoch, h.lc, h.cfg.VIDSpace.Max())
			if s[i].St != Invalid {
				fn(&s[i])
			}
		}
	}
}

// markDirty records that set si may have changed since the last specCount.
//
//hmtx:hotpath
func (c *cache) markDirty(si int) { c.dirty[si>>6] |= 1 << (si & 63) }

// specCount recounts the speculative frames of every dirty set and returns
// the cache's total. It counts raw, unsettled states, as a scan of every
// frame would: a line with a pending lazy commit still counts until it is
// next touched.
func (c *cache) specCount() uint64 {
	for wi, w := range c.dirty {
		for w != 0 {
			si := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			n := uint32(0)
			for i := range c.sets[si] {
				if c.sets[si][i].St.Speculative() {
					n++
				}
			}
			c.spec += uint64(n) - uint64(c.meta[si].spec)
			c.meta[si].spec = n
		}
		c.dirty[wi] = 0
	}
	return c.spec
}

// scanSpec counts the speculative frames of the cache by visiting every
// allocated frame: the reference specCount must agree with (MOESI-San
// invariant 9).
func (c *cache) scanSpec() uint64 {
	var n uint64
	for _, s := range c.sets {
		for i := range s {
			if s[i].St.Speculative() {
				n++
			}
		}
	}
	return n
}

// lineCount returns the number of valid lines (for tests and stats).
func (c *cache) lineCount() int {
	n := 0
	c.forEach(func(*Line) { n++ })
	return n
}
