package memsys

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"

	"hmtx/internal/vid"
)

// This file gives the hierarchy the snapshot support the model checker
// (internal/check) is built on: deep copies, so every explored edge can fork
// the simulator, and a canonical state encoding, so semantically equivalent
// configurations collapse into one visited-set entry (DESIGN.md §12). Both
// are allocation-free once their destinations are warm: the checker copies
// each edge into a pooled hierarchy and encodes it into a reused buffer.
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
	c := New(h.cfg)
	h.cloneInto(c)
	return c
}

// CloneInto overwrites dst with a deep copy of h, exactly as Clone would
// build it, reusing dst's storage. dst must have been built by New with the
// same Config as h (typically an earlier clone target); it panics otherwise.
func (h *Hierarchy) CloneInto(dst *Hierarchy) {
	if dst == h || dst.cfg != h.cfg {
		panic("memsys: CloneInto needs a distinct hierarchy built with the same Config")
	}
	h.cloneInto(dst)
}

// cloneInto is the one deep-copy path behind Clone and CloneInto. dst keeps
// its own set frames, bookkeeping slices, maps and sanitizer scratch and
// loses its observers; everything else is overwritten from h.
func (h *Hierarchy) cloneInto(dst *Hierarchy) {
	h.mem.cloneInto(dst.mem)
	dst.lc = h.lc
	dst.epoch = h.epoch
	dst.stats = h.stats
	dst.gen = h.gen
	dst.pendingOverflow = h.pendingOverflow
	clear(dst.pres)
	for a, m := range h.pres {
		dst.pres[a] = m
	}
	dst.tracker = nil
	dst.tracer = nil
	dst.prof = nil
	dst.conflicts = nil
	dst.histLoadLat = nil
	dst.histStoreLat = nil
	dst.san.muted = false
	for i, c := range h.all {
		c.cloneInto(dst.all[i])
	}
}

// cloneInto overwrites dst, the same cache of another hierarchy built with
// the same Config, with a deep copy of c. Frames are copied exactly, Invalid
// ones included (their way position and stale LRU stamps decide pickVictim
// ties), and a set stays unallocated exactly when it is in c. Sets that
// must be allocated in dst share one backing array, so a copy into a fresh
// cache costs one allocation whatever its size.
func (c *cache) cloneInto(dst *cache) {
	if dst.hier == c.hier || dst.name != c.name || dst.id != c.id || dst.numSets != c.numSets || dst.ways != c.ways {
		panic("memsys: cache cloneInto across different geometries")
	}
	need := 0
	for si, s := range c.sets {
		if s != nil && dst.sets[si] == nil {
			need++
		}
	}
	var frames []Line
	if need > 0 {
		frames = make([]Line, need*c.ways)
	}
	for si, s := range c.sets {
		switch {
		case s == nil:
			dst.sets[si] = nil
			continue
		case dst.sets[si] == nil:
			dst.sets[si], frames = frames[:c.ways:c.ways], frames[c.ways:]
		}
		copy(dst.sets[si], s)
	}
	copy(dst.meta, c.meta)
	copy(dst.dirty, c.dirty)
	dst.spec = c.spec
	dst.hits = c.hits
	dst.lruClock = c.lruClock
}

// cloneInto overwrites dst with a deep copy of the simulated main memory.
func (m *memory) cloneInto(dst *memory) {
	clear(dst.lines)
	for a, data := range m.lines {
		dst.lines[a] = data
	}
}

// canonLineSize is the fixed width of one line's canonical record
// (Line.appendCanon): tag, three state bytes, four settle/shadow/rank
// bytes, and the data.
const canonLineSize = 8 + 3 + 4 + LineSize

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
//
// It allocates only to grow buf: the per-L1 encodings are staged in buf's
// own spare capacity, sorted there by offset and moved into place.
func (h *Hierarchy) AppendCanonical(buf []byte, addrs []Addr) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.lc))
	if h.pendingOverflow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	// Stage each L1's encoding past the end of the output, then append
	// them in sorted order, each with its length, and move the result
	// down over the staging area.
	stage := len(buf)
	spans := make([][2]int, 0, 8) // [start, end) of each staged encoding
	for _, c := range h.l1s {
		lo := len(buf)
		buf = c.appendCanon(buf)
		spans = append(spans, [2]int{lo, len(buf)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int { return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]]) })
	out := len(buf)
	for _, sp := range spans {
		buf = binary.BigEndian.AppendUint64(buf, uint64(sp[1]-sp[0]))
		buf = append(buf, buf[sp[0]:sp[1]]...)
	}
	buf = buf[:stage+copy(buf[stage:], buf[out:])]

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

// appendCanon encodes one cache level: per set with valid lines, its index,
// the line count and the sorted multiset of the lines' fixed-width records,
// sorted in place.
func (c *cache) appendCanon(buf []byte) []byte {
	h := c.hier
	for si, s := range c.sets {
		if s == nil {
			continue
		}
		start := len(buf)
		buf = binary.BigEndian.AppendUint64(buf, uint64(si))
		buf = append(buf, 0) // line count, filled in below
		n := 0
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
			buf = s[wi].appendCanon(buf, h.epoch, h.lc, rank)
			n++
		}
		if n == 0 {
			buf = buf[:start]
			continue
		}
		buf[start+8] = byte(n)
		sortRecords(buf[start+9:])
	}
	return buf
}

// sortRecords sorts the canonLineSize-wide records of recs into ascending
// byte order in place (insertion sort: a set holds at most a few ways).
func sortRecords(recs []byte) {
	const w = canonLineSize
	var tmp [w]byte
	for i := w; i < len(recs); i += w {
		j := i
		for j > 0 && bytes.Compare(recs[j-w:j], recs[i:i+w]) > 0 {
			j -= w
		}
		if j == i {
			continue
		}
		copy(tmp[:], recs[i:i+w])
		copy(recs[j+w:i+w], recs[j:i])
		copy(recs[j:j+w], tmp[:])
	}
}

// appendCanon encodes one line against the hierarchy registers (epoch, lc)
// as a canonLineSize-byte record. Epoch and SettledLC reduce to
// current/stale and settled/unsettled bits, and the shadow mark to its
// effective (epoch-decayed) value, because that is all settling and shadow
// reads can observe (line.go).
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
