package check

import (
	"encoding/binary"

	"hmtx/internal/vid"
)

// oracle is the sequential reference semantics the hierarchy is checked
// against, in the style of property_test.go's refMem but VID-aware: HMTX
// transactions are ordered by VID, so a load with VID a must observe the
// latest store to the address by the highest VID at most a that has an
// outstanding (uncommitted, unaborted) write, falling back to the committed
// value (§4.1). Non-speculative accesses behave as VID LC.
//
// The oracle tracks one word per bounded line address, since the checker's
// stimuli only ever access word 0 of each line.
type oracle struct {
	addrs int
	vids  int
	// committed[ai] is the committed value of address ai.
	committed []uint64
	// pending[(v-1)*addrs+ai] is the outstanding write of VID v to address
	// ai, or -1 if v has not (re)written it.
	pending []int64
}

func newOracle(addrs, vids int) *oracle {
	o := &oracle{
		addrs:     addrs,
		vids:      vids,
		committed: make([]uint64, addrs),
		pending:   make([]int64, addrs*vids),
	}
	for i := range o.pending {
		o.pending[i] = -1
	}
	return o
}

// cloneInto overwrites dst, an oracle of the same bounds, with a copy of o.
func (o *oracle) cloneInto(dst *oracle) {
	dst.addrs, dst.vids = o.addrs, o.vids
	copy(dst.committed, o.committed)
	copy(dst.pending, o.pending)
}

// visible returns the value a load with effective VID a must observe at
// address index ai.
func (o *oracle) visible(ai int, a vid.V) uint64 {
	v := int(a)
	if v > o.vids {
		v = o.vids
	}
	for ; v >= 1; v-- {
		if p := o.pending[(v-1)*o.addrs+ai]; p >= 0 {
			return uint64(p)
		}
	}
	return o.committed[ai]
}

// store records a write by VID v (vid.NonSpec writes the committed value
// directly: the hierarchy only lets a non-speculative store through when no
// speculative access is outstanding on the line, §4.3).
func (o *oracle) store(ai int, v vid.V, val uint64) {
	if v == vid.NonSpec {
		o.committed[ai] = val
		return
	}
	o.pending[(int(v)-1)*o.addrs+ai] = int64(val)
}

// commit applies VID v's outstanding writes to the committed image (§5.3).
func (o *oracle) commit(v vid.V) {
	for ai := 0; ai < o.addrs; ai++ {
		if p := o.pending[(int(v)-1)*o.addrs+ai]; p >= 0 {
			o.committed[ai] = uint64(p)
			o.pending[(int(v)-1)*o.addrs+ai] = -1
		}
	}
}

// abortAll discards every outstanding write: only uncommitted VIDs can have
// one (commit clears as it applies), and aborts flush all of those (§4.4).
func (o *oracle) abortAll() {
	for i := range o.pending {
		o.pending[i] = -1
	}
}

// appendCanon appends the oracle's state to the canonical encoding of a
// checker state.
func (o *oracle) appendCanon(buf []byte) []byte {
	for _, v := range o.committed {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, p := range o.pending {
		buf = binary.BigEndian.AppendUint64(buf, uint64(p))
	}
	return buf
}
