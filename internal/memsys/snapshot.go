package memsys

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"sort"

	"hmtx/internal/vid"
)

// This file gives the hierarchy the snapshot support the model checker
// (internal/check) is built on: deep copies, so every explored edge can fork
// the simulator, and a canonical state encoding, so semantically equivalent
// configurations collapse into one visited-set entry (DESIGN.md §12).
//
// The statefp analyzer (tools/analyzers/statefp) keeps these methods honest:
// every field of a struct with a clone/canonical method must be referenced in
// one of those methods, so a field added to memsys cannot silently escape the
// checker's notion of state.

// Clone returns a deep copy of the hierarchy sharing no mutable state with
// the original. Observers are deliberately not carried over: the clone has no
// tracker, no tracer, no registered histograms, and a fresh sanitizer
// scratch. Statistics and LRU/generation bookkeeping are copied, so a clone
// behaves cycle-identically to the original under the same stimuli.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{
		cfg:             h.cfg,
		mem:             h.mem.clone(),
		lc:              h.lc,
		epoch:           h.epoch,
		stats:           h.stats,
		gen:             h.gen,
		pendingOverflow: h.pendingOverflow,
		pres:            make(map[Addr]presMask, len(h.pres)),
		tracker:         nil,
		tracer:          nil,
		prof:            nil,
		conflicts:       nil,
		histLoadLat:     nil,
		histStoreLat:    nil,
		san:             sanitizer{},
	}
	for a, m := range h.pres {
		c.pres[a] = m
	}
	for _, l1 := range h.l1s {
		c.l1s = append(c.l1s, l1.clone(c))
	}
	c.l2 = h.l2.clone(c)
	c.all = append(append([]*cache{}, c.l1s...), c.l2)
	return c
}

// clone deep-copies one cache level, re-homing it onto hierarchy h.
func (c *cache) clone(h *Hierarchy) *cache {
	cp := &cache{
		name:     c.name,
		id:       c.id,
		hier:     h,
		numSets:  c.numSets,
		ways:     c.ways,
		hits:     c.hits,
		lruClock: c.lruClock,
	}
	// One backing array for every allocated set: a clone costs the same
	// number of allocations whatever the cache size or how many sets are
	// filled, which matters because the model checker clones per edge.
	n := 0
	for _, s := range c.sets {
		if s != nil {
			n++
		}
	}
	frames := make([]Line, 0, n*c.ways)
	cp.sets = make([][]Line, len(c.sets))
	for i, s := range c.sets {
		if s != nil {
			lo := len(frames)
			frames = append(frames, s...)
			cp.sets[i] = frames[lo:len(frames):len(frames)]
		}
	}
	cp.meta = append([]setMeta(nil), c.meta...)
	cp.dirty = append([]uint64(nil), c.dirty...)
	cp.spec = c.spec
	return cp
}

// clone deep-copies the simulated main memory.
func (m *memory) clone() *memory {
	cp := newMemory()
	for a, data := range m.lines {
		cp.lines[a] = data
	}
	return cp
}

// AppendCanonical appends a canonical encoding of the hierarchy's semantic
// state to buf and returns the result. Two hierarchies with equal encodings
// are behaviourally indistinguishable under any future stimulus sequence that
// treats cores symmetrically; encodings are invariant under the permutations
// that cannot be observed through the protocol:
//
//   - way permutation: lines of one set encode as a sorted multiset, with
//     the LRU clock reduced to a per-set recency rank (victim selection only
//     ever compares stamps within one set);
//   - core permutation: the per-L1 encodings are sorted, because the
//     stimulus alphabet of the checker is core-symmetric;
//   - epoch distance: a line's epoch encodes only as current/stale, since
//     settling treats every stale epoch identically (§4.6), and pending lazy
//     commits reduce to a settled/unsettled bit (settling depends only on
//     the hierarchy's LC VID, §5.3);
//   - derived bookkeeping: snoop-filter presence bits (a conservative
//     superset of residency, DESIGN.md §11), settle-skip generation stamps,
//     and statistics are omitted entirely.
//
// Main memory is encoded only for the given line addresses: callers must
// pass (a superset of) every line their stimuli can touch. Cache-resident
// state is always encoded in full.
func (h *Hierarchy) AppendCanonical(buf []byte, addrs []Addr) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.lc))
	if h.pendingOverflow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	encs := make([][]byte, 0, len(h.l1s))
	for _, c := range h.l1s {
		encs = append(encs, c.appendCanon(nil))
	}
	sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
	for _, e := range encs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(e)))
		buf = append(buf, e...)
	}
	buf = h.l2.appendCanon(buf)
	for _, la := range addrs {
		la = LineAddr(la)
		buf = binary.BigEndian.AppendUint64(buf, la)
		data := h.mem.read(la)
		buf = append(buf, data[:]...)
	}
	return buf
}

// Fingerprint returns a 64-bit FNV-1a hash of the canonical encoding. See
// AppendCanonical for the equivalence it quotients by and the meaning of
// addrs.
func (h *Hierarchy) Fingerprint(addrs []Addr) uint64 {
	f := fnv.New64a()
	f.Write(h.AppendCanonical(nil, addrs))
	return f.Sum64()
}

// appendCanon encodes one cache level: per set, the sorted multiset of its
// valid lines' canonical encodings.
func (c *cache) appendCanon(buf []byte) []byte {
	h := c.hier
	var encs [][]byte
	for si := range c.sets {
		s := c.sets[si]
		encs = encs[:0]
		for wi := range s {
			if s[wi].St == Invalid {
				continue
			}
			// The LRU stamp canonicalizes as the line's recency rank
			// among the valid lines of its set: absolute stamp values
			// are unobservable, relative order within a set decides
			// victim selection (cache.pickVictim).
			rank := 0
			for wj := range s {
				if s[wj].St != Invalid && s[wj].lru < s[wi].lru {
					rank++
				}
			}
			encs = append(encs, s[wi].appendCanon(nil, h.epoch, h.lc, rank))
		}
		if len(encs) == 0 {
			continue
		}
		sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
		buf = binary.BigEndian.AppendUint64(buf, uint64(si))
		buf = append(buf, byte(len(encs)))
		for _, e := range encs {
			buf = append(buf, e...)
		}
	}
	return buf
}

// appendCanon encodes one line against the hierarchy registers (epoch, lc).
// Epoch and SettledLC reduce to current/stale and settled/unsettled bits, and
// the shadow mark to its effective (epoch-decayed) value, because that is all
// settling and shadow reads can observe (line.go).
func (l *Line) appendCanon(buf []byte, epoch uint64, lc vid.V, lruRank int) []byte {
	buf = binary.BigEndian.AppendUint64(buf, l.Tag)
	buf = append(buf, byte(l.St), byte(l.Mod), byte(l.High))
	same, settled := byte(0), byte(0)
	if l.Epoch == epoch {
		same = 1
		if l.SettledLC == lc {
			settled = 1
		}
	}
	sh := vid.V(0)
	if l.ShadowEpoch == epoch {
		sh = l.ShadowHigh
	}
	buf = append(buf, same, settled, byte(sh), byte(lruRank))
	buf = append(buf, l.Data[:]...)
	return buf
}

// Evict forces the eviction of one resident version of lineAddr from the
// given cache (0..Cores-1 are the L1s, Cores the L2), modelling capacity
// pressure from unrelated traffic. The least recently used version of the
// line is chosen; the victim then follows the normal eviction cascade
// (placeVictim): L1 victims move to the L2, last-level victims write back,
// vanish, or force a §5.4 overflow abort, which is reported through
// Result.Conflict exactly as on Load/Store. It returns false if the cache
// holds no version of the line.
func (h *Hierarchy) Evict(cacheIdx int, lineAddr Addr) (bool, Result) {
	h.sanBegin(lineAddr)
	lineAddr = LineAddr(lineAddr)
	c := h.all[cacheIdx]
	s := c.set(lineAddr) // settle resident versions first, as insert would
	var victim *Line
	for i := range s {
		ln := &s[i]
		if ln.St == Invalid || ln.Tag != lineAddr {
			continue
		}
		if victim == nil || ln.lru < victim.lru {
			victim = ln
		}
	}
	var res Result
	if victim == nil {
		h.sanCheck()
		return false, res
	}
	v := *victim
	victim.St = Invalid
	still := false
	for i := range s {
		if s[i].St != Invalid && s[i].Tag == lineAddr {
			still = true
			break
		}
	}
	if !still {
		h.clearPresent(c, lineAddr)
	}
	h.stats.ForcedEvicts++
	h.placeVictim(v, c)
	h.checkOverflow(&res)
	h.sanCheck()
	return true, res
}
