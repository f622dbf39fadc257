package memsys

import (
	"bytes"
	"testing"
)

// snapAddrB is a second line, in a different set from addrA.
const snapAddrB = addrA + 4096

// snapAddrs is the memory scope the snapshot tests fingerprint over.
var snapAddrs = []Addr{addrA, snapAddrB}

// buildSnapState drives a hierarchy into a mixed configuration: committed
// dirty data, a speculative version chain (superseded S-M plus latest S-M),
// a remote S-S copy, and unrelated clean residency.
func buildSnapState(t *testing.T) *Hierarchy {
	t.Helper()
	h := newTestH(2)
	mustStore(t, h, 0, addrA, 10, 0)     // non-spec dirty M in L1.0
	mustLoad(t, h, 1, addrA, 1)          // migrate to L1.1, speculative read
	mustStore(t, h, 1, addrA, 11, 1)     // S-M(1,·) in L1.1
	mustStore(t, h, 1, addrA, 12, 2)     // re-store: S-M(1,2) + S-M(2,·) chain
	mustLoad(t, h, 0, addrA, 1)          // S-S copy of version 1 back in L1.0
	mustStore(t, h, 0, snapAddrB, 20, 0) // unrelated line
	return h
}

// TestCloneIndependence: a clone shares no mutable state — mutating the clone
// leaves the original's canonical encoding untouched, and both evolve
// identically from the fork point under the same stimuli.
func TestCloneIndependence(t *testing.T) {
	h := buildSnapState(t)
	before := h.AppendCanonical(nil, snapAddrs)

	c := h.Clone()
	if !bytes.Equal(before, c.AppendCanonical(nil, snapAddrs)) {
		t.Fatal("clone does not canonicalize identically to its original")
	}

	mustStore(t, c, 0, addrA, 99, 2)
	c.Commit(1)
	c.AbortAll()
	if !bytes.Equal(before, h.AppendCanonical(nil, snapAddrs)) {
		t.Fatal("mutating the clone changed the original")
	}

	// Same stimuli applied to both sides of the fork must stay in lockstep.
	c2 := h.Clone()
	h.Commit(1)
	mustLoad(t, h, 1, addrA, 2)
	c2.Commit(1)
	mustLoad(t, c2, 1, addrA, 2)
	if h.Fingerprint(snapAddrs) != c2.Fingerprint(snapAddrs) {
		t.Fatal("original and clone diverged under identical stimuli")
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatalf("clone violates invariants: %v", err)
	}
}

// TestFingerprintWayPermutation: physically permuting the ways of a set (and
// translating the LRU stamps while preserving their relative order) is
// unobservable, so the fingerprint must not move.
func TestFingerprintWayPermutation(t *testing.T) {
	h := buildSnapState(t)
	fp := h.Fingerprint(snapAddrs)

	for _, c := range h.all {
		for si := range c.sets {
			s := c.sets[si]
			for l, r := 0, len(s)-1; l < r; l, r = l+1, r-1 {
				s[l], s[r] = s[r], s[l]
			}
		}
	}
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("way permutation changed the fingerprint")
	}

	// Rescale LRU stamps: double every stamp, preserving within-set order.
	for _, c := range h.all {
		for si := range c.sets {
			s := c.sets[si]
			for i := range s {
				s[i].lru *= 2
			}
		}
	}
	for _, c := range h.all {
		c.lruClock *= 2
	}
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("order-preserving LRU rescale changed the fingerprint")
	}
}

// TestFingerprintCorePermutation: the checker's stimulus alphabet is
// core-symmetric, so swapping the entire contents of two L1s is quotiented
// away by the sorted per-L1 encoding.
func TestFingerprintCorePermutation(t *testing.T) {
	h := buildSnapState(t)
	fp := h.Fingerprint(snapAddrs)

	a, b := h.l1s[0], h.l1s[1]
	a.sets, b.sets = b.sets, a.sets
	a.meta, b.meta = b.meta, a.meta
	a.dirty, b.dirty = b.dirty, a.dirty
	a.spec, b.spec = b.spec, a.spec
	if h.Fingerprint(snapAddrs) != fp {
		t.Fatal("core permutation changed the fingerprint")
	}
}

// TestFingerprintDistinct: semantically different states must not collapse.
// Each mutation below is observable through the protocol, so each must move
// the canonical encoding.
func TestFingerprintDistinct(t *testing.T) {
	base := buildSnapState(t)
	fp := base.Fingerprint(snapAddrs)

	mutations := []struct {
		name string
		mut  func(*Hierarchy)
	}{
		{"data byte", func(h *Hierarchy) {
			h.l1s[1].sets[h.l1s[1].setIndex(addrA)][0].Data[0] ^= 0xff
		}},
		{"version range", func(h *Hierarchy) {
			s := h.l1s[1].sets[h.l1s[1].setIndex(addrA)]
			for i := range s {
				if s[i].St.Speculative() && s[i].St.superseded() {
					s[i].High++
					return
				}
			}
			t.Fatal("no superseded version found to mutate")
		}},
		{"lru order", func(h *Hierarchy) {
			// Swapping the recency of two valid lines in one set changes
			// the next victim, which is observable under capacity pressure.
			s := h.l1s[1].sets[h.l1s[1].setIndex(addrA)]
			var valid []*Line
			for i := range s {
				if s[i].St != Invalid {
					valid = append(valid, &s[i])
				}
			}
			if len(valid) < 2 {
				t.Fatal("need two valid lines to swap recency")
			}
			valid[0].lru, valid[1].lru = valid[1].lru, valid[0].lru
		}},
		{"committed memory", func(h *Hierarchy) {
			d := h.mem.read(LineAddr(snapAddrB))
			d[0] ^= 0xff
			h.mem.write(LineAddr(snapAddrB), d)
		}},
		{"lc register", func(h *Hierarchy) {
			h.lc++
		}},
	}
	for _, m := range mutations {
		h := buildSnapState(t)
		m.mut(h)
		if h.Fingerprint(snapAddrs) == fp {
			t.Errorf("%s mutation did not change the fingerprint", m.name)
		}
	}
}

// TestCloneDropsObservers: clones must not inherit trackers, tracers or
// histogram sinks — checker edges would otherwise emit events.
func TestCloneDropsObservers(t *testing.T) {
	h := buildSnapState(t)
	c := h.Clone()
	if c.tracker != nil || c.tracer != nil || c.histLoadLat != nil || c.histStoreLat != nil {
		t.Fatal("clone carried observers over")
	}
}

// TestCloneIntoOverwritesExactly: CloneInto makes its destination an exact
// copy whatever the destination held before — more sets filled, other
// lines, other statistics — down to the round-trippable encoding, which
// keeps way positions, stale LRU stamps of Invalid frames, settle stamps and
// snoop-filter bits.
func TestCloneIntoOverwritesExactly(t *testing.T) {
	h := buildSnapState(t)
	dst := h.Clone()
	mustStore(t, dst, 0, addrA+8192, 5, 0) // fills a set h leaves empty
	mustLoad(t, dst, 1, snapAddrB, 0)
	dst.Commit(1)

	fresh := New(h.cfg)
	for _, src := range []*Hierarchy{fresh, h} {
		src.CloneInto(dst)
		if !bytes.Equal(dst.AppendExact(nil), src.AppendExact(nil)) {
			t.Fatal("CloneInto left state behind that the exact encoding sees")
		}
	}
	// The copy evolves exactly as its source under the same stimuli.
	mustStore(t, h, 0, addrA, 13, 2)
	mustStore(t, dst, 0, addrA, 13, 2)
	if !bytes.Equal(dst.AppendExact(nil), h.AppendExact(nil)) {
		t.Fatal("original and CloneInto copy diverged under identical stimuli")
	}
}

// TestCloneIntoSelfOrOtherConfigPanics: the destination must be a distinct
// hierarchy of the same Config.
func TestCloneIntoSelfOrOtherConfigPanics(t *testing.T) {
	h := buildSnapState(t)
	cfg := h.cfg
	cfg.Cores++
	for name, dst := range map[string]*Hierarchy{"self": h, "other config": New(cfg)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CloneInto into %s did not panic", name)
				}
			}()
			h.CloneInto(dst)
		}()
	}
}

// TestCloneIntoAndCanonicalDoNotAllocate: on a warm pair — a destination
// that already holds a copy and an encoding buffer already grown — copying
// a hierarchy and encoding the copy allocate nothing. The model checker does
// both on every edge.
func TestCloneIntoAndCanonicalDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := buildSnapState(t)
	dst := h.Clone()
	buf := h.AppendCanonical(nil, snapAddrs)
	want := string(buf)
	if n := testing.AllocsPerRun(100, func() {
		h.CloneInto(dst)
		buf = dst.AppendCanonical(buf[:0], snapAddrs)
	}); n != 0 {
		t.Fatalf("CloneInto + AppendCanonical made %v allocations, want 0", n)
	}
	if string(buf) != want {
		t.Fatal("the copy encodes differently from its original")
	}
}
