package memsys

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"

	"hmtx/internal/vid"
)

// This file implements the exact (round-trippable) state encoding behind the
// hmtx-ckpt/v2 checkpoint format (internal/ckpt, DESIGN.md §18). Unlike
// AppendCanonical (snapshot.go), which deliberately quotients by way and core
// permutations, epoch distance and derived bookkeeping so the model checker
// can collapse equivalent states, AppendExact preserves every bit of the
// hierarchy's mutable state: a hierarchy restored with RestoreExact behaves
// byte-identically to the original under any stimulus sequence, including
// statistics, victim selection (absolute LRU stamps), settle-skip generation
// stamps and snoop-filter presence bits.
//
// The encoding is versioned by its magic string and validated against the
// restoring hierarchy's geometry, so a checkpoint taken under one Config can
// never be silently decoded into an incompatible machine.
//
// The encoding is sparse, like the cache storage it mirrors (DESIGN.md §11,
// §18.2): a cache contributes only the sets that were ever filled or
// settle-stamped, and within them only the frames that are not the zero
// Line. Each encoded frame keeps its way index and LRU stamp, and each set
// its settle stamps: way position and the stale LRU stamps of Invalid frames
// decide pickVictim ties, so dropping them would change later victims.

// exactMagic versions the exact binary encoding. Bump it on any layout
// change; internal/ckpt carries the whole blob opaquely.
const exactMagic = "hmtxmem2"

// AppendExact appends a complete, restorable encoding of the hierarchy's
// mutable state to buf and returns the result. Observers (tracker, tracer,
// profiler, metric instruments, registered histograms) and the MOESI-San
// scratch state are not part of the encoding, exactly as they are not part
// of a Clone: they are re-attached by the restoring caller.
func (h *Hierarchy) AppendExact(buf []byte) []byte {
	buf = append(buf, exactMagic...)
	for _, g := range h.geometry() {
		buf = binary.BigEndian.AppendUint64(buf, g)
	}
	buf = append(buf, byte(h.lc))
	buf = binary.BigEndian.AppendUint64(buf, h.epoch)
	buf = binary.BigEndian.AppendUint64(buf, h.gen)
	if h.pendingOverflow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}

	// Statistics, in declaration order. Stats.Add already guarantees every
	// field is a uint64; rely on the same reflective walk so a new counter
	// cannot silently fall out of the checkpoint format.
	sv := reflect.ValueOf(&h.stats).Elem()
	buf = binary.BigEndian.AppendUint64(buf, uint64(sv.NumField()))
	for i := 0; i < sv.NumField(); i++ {
		buf = binary.BigEndian.AppendUint64(buf, sv.Field(i).Uint())
	}

	// Snoop-filter presence masks, sorted by line address. The filter is a
	// conservative superset and carries no architectural data, but it is
	// part of the deterministic replay state: which caches a sweep visits
	// (and therefore which stale bits it clears) depends on it.
	pres := make([]Addr, 0, len(h.pres))
	for a := range h.pres {
		pres = append(pres, a)
	}
	sort.Slice(pres, func(i, j int) bool { return pres[i] < pres[j] })
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(pres)))
	for _, a := range pres {
		buf = binary.BigEndian.AppendUint64(buf, a)
		m := h.pres[a]
		for wi := 0; wi < presWords; wi++ {
			buf = binary.BigEndian.AppendUint64(buf, m[wi])
		}
	}

	// Main memory, sorted by line address.
	mem := make([]Addr, 0, len(h.mem.lines))
	for a := range h.mem.lines {
		mem = append(mem, a)
	}
	sort.Slice(mem, func(i, j int) bool { return mem[i] < mem[j] })
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(mem)))
	for _, a := range mem {
		buf = binary.BigEndian.AppendUint64(buf, a)
		data := h.mem.lines[a]
		buf = append(buf, data[:]...)
	}

	// Every cache, L1s in core order then the L2, frame by frame.
	for _, c := range h.allCaches() {
		buf = c.appendExact(buf)
	}
	return buf
}

// geometry returns the configuration parameters that determine the state
// layout. Latencies and feature flags live in the surrounding checkpoint
// document; only layout-affecting parameters gate a restore.
func (h *Hierarchy) geometry() []uint64 {
	return []uint64{
		uint64(h.cfg.Cores),
		uint64(h.cfg.L1Size), uint64(h.cfg.L1Ways),
		uint64(h.cfg.L2Size), uint64(h.cfg.L2Ways),
		uint64(h.cfg.VIDSpace.Bits),
	}
}

func (c *cache) appendExact(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, c.lruClock)
	buf = binary.BigEndian.AppendUint64(buf, c.hits)
	n := 0
	for si := range c.sets {
		if c.encodesSet(si) {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for si, s := range c.sets {
		if !c.encodesSet(si) {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(si))
		buf = binary.BigEndian.AppendUint64(buf, c.meta[si].gen)
		buf = binary.BigEndian.AppendUint64(buf, c.meta[si].tag)
		k := 0
		for wi := range s {
			if s[wi] != (Line{}) {
				k++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(k))
		for wi := range s {
			if s[wi] != (Line{}) {
				buf = binary.AppendUvarint(buf, uint64(wi))
				buf = s[wi].appendExact(buf)
			}
		}
	}
	return buf
}

// encodesSet reports whether set si carries any state: allocated frames or
// settle stamps. Every other set is indistinguishable from a fresh one.
func (c *cache) encodesSet(si int) bool {
	return c.sets[si] != nil || c.meta[si] != (setMeta{})
}

func (l *Line) appendExact(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, l.Tag)
	buf = append(buf, byte(l.St), byte(l.Mod), byte(l.High))
	buf = binary.BigEndian.AppendUint64(buf, l.Epoch)
	buf = append(buf, byte(l.SettledLC), byte(l.ShadowHigh))
	buf = binary.BigEndian.AppendUint64(buf, l.ShadowEpoch)
	buf = binary.BigEndian.AppendUint64(buf, l.lru)
	buf = append(buf, l.Data[:]...)
	return buf
}

// exactReader decodes the fixed-width fields of the exact encoding, turning
// truncation into an error instead of a panic.
type exactReader struct {
	buf []byte
	err error
}

func (r *exactReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("memsys: truncated exact encoding (need %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *exactReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *exactReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("memsys: malformed varint in exact encoding")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *exactReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// RestoreExact overwrites the hierarchy's mutable state with the encoding
// produced by AppendExact. The hierarchy must have been built by New with a
// geometry-compatible Config (same core count, cache sizes/associativities
// and VID width); latencies and feature flags are taken from the receiver's
// own Config. Observers keep whatever the caller attached. On error the
// hierarchy may be partially overwritten and must be discarded.
func (h *Hierarchy) RestoreExact(enc []byte) error {
	r := &exactReader{buf: enc}
	if magic := r.bytes(len(exactMagic)); r.err != nil || string(magic) != exactMagic {
		return fmt.Errorf("memsys: not an exact state encoding (bad magic)")
	}
	want := h.geometry()
	for i, w := range want {
		if g := r.u64(); r.err == nil && g != w {
			return fmt.Errorf("memsys: checkpoint geometry mismatch (field %d: encoded %d, machine %d)", i, g, w)
		}
	}
	h.lc = vid.V(r.u8())
	h.epoch = r.u64()
	h.gen = r.u64()
	h.pendingOverflow = r.u8() != 0

	sv := reflect.ValueOf(&h.stats).Elem()
	if n := r.u64(); r.err == nil && n != uint64(sv.NumField()) {
		return fmt.Errorf("memsys: checkpoint has %d stats fields, machine has %d", n, sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(r.u64())
	}

	h.pres = make(map[Addr]presMask)
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		a := r.u64()
		var m presMask
		for wi := 0; wi < presWords; wi++ {
			m[wi] = r.u64()
		}
		h.pres[a] = m
	}

	h.mem = newMemory()
	for n := r.u64(); n > 0 && r.err == nil; n-- {
		a := r.u64()
		var data [LineSize]byte
		copy(data[:], r.bytes(LineSize))
		h.mem.lines[a] = data
	}

	for _, c := range h.allCaches() {
		c.restoreExact(r)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("memsys: %d trailing bytes after exact encoding", len(r.buf))
	}
	h.san = sanitizer{}
	return nil
}

func (c *cache) restoreExact(r *exactReader) {
	c.lruClock = r.u64()
	c.hits = r.u64()
	c.sets = make([][]Line, c.numSets)
	c.meta = make([]setMeta, c.numSets)
	c.dirty = make([]uint64, len(c.dirty))
	c.spec = 0
	next := 0 // sets are encoded in ascending index order
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		si := r.uvarint()
		if r.err == nil && (si < uint64(next) || si >= uint64(c.numSets)) {
			r.err = fmt.Errorf("memsys: %s: set index %d out of order or range", c.name, si)
			return
		}
		next = int(si) + 1
		c.meta[si].gen = r.u64()
		c.meta[si].tag = r.u64()
		k := r.uvarint()
		if r.err == nil && k > uint64(c.ways) {
			r.err = fmt.Errorf("memsys: %s set %d: %d frames in a %d-way set", c.name, si, k, c.ways)
			return
		}
		if k == 0 {
			continue
		}
		s := make([]Line, c.ways)
		c.sets[si] = s
		c.markDirty(int(si)) // recount on the next sample
		for ; k > 0 && r.err == nil; k-- {
			wi := r.uvarint()
			if r.err == nil && wi >= uint64(c.ways) {
				r.err = fmt.Errorf("memsys: %s set %d: way %d out of range", c.name, si, wi)
				return
			}
			s[wi].restoreExact(r)
		}
	}
}

func (l *Line) restoreExact(r *exactReader) {
	l.Tag = r.u64()
	l.St = State(r.u8())
	l.Mod = vid.V(r.u8())
	l.High = vid.V(r.u8())
	l.Epoch = r.u64()
	l.SettledLC = vid.V(r.u8())
	l.ShadowHigh = vid.V(r.u8())
	l.ShadowEpoch = r.u64()
	l.lru = r.u64()
	copy(l.Data[:], r.bytes(LineSize))
}

// Addrs returns every line address the hierarchy knows about — resident in
// any cache or present in main memory — sorted ascending. It is the address
// universe hmtxdbg enumerates for state dumps and diffs.
func (h *Hierarchy) Addrs() []Addr {
	seen := make(map[Addr]struct{}, len(h.mem.lines))
	for a := range h.mem.lines {
		seen[a] = struct{}{}
	}
	for _, c := range h.allCaches() {
		for si := range c.sets {
			s := c.sets[si]
			for wi := range s {
				if s[wi].St != Invalid {
					seen[s[wi].Tag] = struct{}{}
				}
			}
		}
	}
	out := make([]Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
