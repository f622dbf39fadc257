package memsys

import (
	"strings"
	"testing"

	"hmtx/internal/vid"
)

// plant writes a raw line into cache c's correct set, bypassing the protocol,
// to construct illegal states the sanitizer must reject. Like insert, it
// allocates the set on first fill and marks it for the occupancy recount.
func plant(h *Hierarchy, c *cache, ln Line) {
	si := c.setIndex(ln.Tag)
	if c.sets[si] == nil {
		c.sets[si] = make([]Line, c.ways)
	}
	c.markDirty(si)
	set := c.sets[si]
	for i := range set {
		if set[i].St == Invalid {
			c.lruClock++
			ln.lru = c.lruClock
			set[i] = ln
			// Planted lines model a line that legally entered the cache,
			// so keep the snoop-filter presence bits covering it.
			h.markPresent(c, ln.Tag)
			return
		}
	}
	panic("plant: set full")
}

func specLine(h *Hierarchy, tag Addr, st State, mod, high vid.V) Line {
	return Line{Tag: tag, St: st, Mod: mod, High: high, Epoch: h.epoch, SettledLC: h.lc}
}

func TestSanitizeCleanFlows(t *testing.T) {
	h := newTestH(4)
	h.PokeWord(addrA, 7)
	if v := mustLoad(t, h, 0, addrA, 1); v != 7 {
		t.Fatalf("load vid 1: got %d, want 7", v)
	}
	mustStore(t, h, 1, addrA, 41, 2)
	if v := mustLoad(t, h, 2, addrA, 3); v != 41 {
		t.Fatalf("load vid 3: got %d, want 41", v)
	}
	h.Commit(1)
	h.Commit(2)
	h.AbortAll()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("legal flow violates invariants: %v", err)
	}
}

func TestSanitizeDetectsViolations(t *testing.T) {
	cases := []struct {
		name  string
		build func(h *Hierarchy)
		want  string
	}{
		{
			name: "two latest versions",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecModified, 2, 2))
				plant(h, h.l1s[1], specLine(h, addrA, SpecModified, 2, 2))
			},
			want: "multiple latest versions",
		},
		{
			name: "overlapping version ranges",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecOwned, 1, 5))
				plant(h, h.l1s[1], specLine(h, addrA, SpecModified, 3, 3))
			},
			want: "version ranges overlap",
		},
		{
			name: "chain without latest",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecOwned, 0, 2))
				plant(h, h.l1s[1], specLine(h, addrA, SpecOwned, 2, 4))
			},
			want: "no latest version",
		},
		{
			name: "S-E with nonzero modVID",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecExclusive, 2, 3))
			},
			want: "S-E must have modVID 0",
		},
		{
			name: "malformed range",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecOwned, 4, 2))
			},
			want: "modVID > highVID",
		},
		{
			name: "speculative owner beside non-speculative copy",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecModified, 2, 2))
				plant(h, h.l1s[1], Line{Tag: addrA, St: Shared, Epoch: h.epoch, SettledLC: h.lc})
			},
			want: "coexists with non-speculative",
		},
		{
			name: "two exclusive copies",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], Line{Tag: addrA, St: Modified, Epoch: h.epoch, SettledLC: h.lc})
				plant(h, h.l1s[1], Line{Tag: addrA, St: Shared, Epoch: h.epoch, SettledLC: h.lc})
			},
			want: "M/E copy coexists",
		},
		{
			name: "diverging shared data",
			build: func(h *Hierarchy) {
				a := Line{Tag: addrA, St: Owned, Epoch: h.epoch, SettledLC: h.lc}
				b := a
				b.St = Shared
				b.Data[0] = 0xff
				plant(h, h.l1s[0], a)
				plant(h, h.l1s[1], b)
			},
			want: "non-speculative copies diverge",
		},
		{
			name: "copy diverging from owner",
			build: func(h *Hierarchy) {
				own := specLine(h, addrA, SpecModified, 2, 3)
				cp := specLine(h, addrA, SpecShared, 2, 3)
				cp.Data[5] = 0xaa
				plant(h, h.l1s[0], own)
				plant(h, h.l1s[1], cp)
			},
			want: "diverges from owner",
		},
		{
			name: "serveable copy without owner",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecModified, 4, 4))
				plant(h, h.l1s[1], specLine(h, addrA, SpecShared, 2, 4))
			},
			want: "no resident owner",
		},
		{
			name: "same-cache serve overlap",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], Line{Tag: addrA, St: Exclusive, Epoch: h.epoch, SettledLC: h.lc})
				plant(h, h.l1s[0], specLine(h, addrA, SpecShared, 0, 2))
			},
			want: "serve ranges overlap",
		},
		{
			name: "duplicate unmerged versions in one set",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecOwned, 2, 3))
				plant(h, h.l1s[0], specLine(h, addrA, SpecShared, 2, 3))
			},
			want: "duplicate unmerged versions",
		},
		{
			name: "line from a future epoch",
			build: func(h *Hierarchy) {
				ln := specLine(h, addrA, SpecModified, 2, 2)
				ln.Epoch = h.epoch + 1
				plant(h, h.l1s[0], ln)
			},
			want: "settled to",
		},
		{
			name: "LRU stamp beyond clock",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecModified, 2, 2))
				set := h.l1s[0].sets[h.l1s[0].setIndex(addrA)]
				set[0].lru = h.l1s[0].lruClock + 100
			},
			want: "LRU stamp",
		},
		{
			name: "speculative-frame count skew",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], specLine(h, addrA, SpecModified, 2, 2))
				h.SpecOccupancy() // bring the maintained counts up to date
				h.l1s[0].spec++
			},
			want: "maintained speculative-frame count",
		},
		{
			name: "nonzero VIDs on a non-speculative line",
			build: func(h *Hierarchy) {
				plant(h, h.l1s[0], Line{Tag: addrA, St: Shared, High: 3, Epoch: h.epoch, SettledLC: h.lc})
			},
			want: "non-speculative line carries VIDs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestH(2)
			tc.build(h)
			err := h.CheckInvariants()
			if err == nil {
				t.Fatalf("invariant violation not detected\n%s", h.String())
			}
			iv, ok := err.(*InvariantViolation)
			if !ok {
				t.Fatalf("error is %T, want *InvariantViolation", err)
			}
			if !strings.Contains(iv.Msg, tc.want) {
				t.Fatalf("violation %q does not mention %q", iv.Msg, tc.want)
			}
			if !strings.Contains(iv.Dump, "Hierarchy{") {
				t.Fatalf("violation carries no hierarchy dump")
			}
		})
	}
}

// TestSanitizePanicsDuringOperation proves the per-operation hook fires: a
// corrupted hierarchy panics with an *InvariantViolation on the next access.
func TestSanitizePanicsDuringOperation(t *testing.T) {
	h := newTestH(2)
	plant(h, h.l1s[0], specLine(h, addrA, SpecOwned, 4, 2)) // Mod > High
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("corrupted state did not panic")
		}
		if _, ok := r.(*InvariantViolation); !ok {
			t.Fatalf("panic value is %T, want *InvariantViolation", r)
		}
	}()
	h.Load(1, addrA, 5)
}

func TestHierarchyDump(t *testing.T) {
	h := newTestH(2)
	mustStore(t, h, 0, addrA, 1, 2)
	s := h.String()
	for _, want := range []string{"Hierarchy{epoch=0 lc=0", "L1.0", "L2", "S-M(2,2)", "memory:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump missing %q:\n%s", want, s)
		}
	}
}

// TestSanitizedCheckDoesNotAllocate: MOESI-San keeps its scratch in the
// hierarchy, so a sanitized Load and a whole-hierarchy CheckInvariants on a
// warm hierarchy allocate nothing. The model checker runs both on every
// edge.
func TestSanitizedCheckDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	h := buildSnapState(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, res := h.Load(1, addrA, 2); res.Conflict {
			t.Fatal("unexpected conflict")
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("sanitized Load + CheckInvariants made %v allocations, want 0", n)
	}
}
