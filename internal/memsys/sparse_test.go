package memsys

import (
	"math/rand"
	"testing"

	"hmtx/internal/vid"
)

// allocatedSets counts the sets of c whose frames have been allocated.
func allocatedSets(c *cache) int {
	n := 0
	for _, s := range c.sets {
		if s != nil {
			n++
		}
	}
	return n
}

// TestSparseSets: a fresh hierarchy allocates no frames, and a fill
// allocates only the set it lands in.
func TestSparseSets(t *testing.T) {
	h := New(DefaultConfig())
	for _, c := range h.all {
		if n := allocatedSets(c); n != 0 {
			t.Fatalf("fresh %s has %d allocated sets, want 0", c.name, n)
		}
	}
	h.PokeWord(addrA, 7) // memory only: no cache fill
	if v, _ := h.Load(0, addrA, vid.NonSpec); v != 7 {
		t.Fatalf("load: got %d, want 7", v)
	}
	for _, c := range h.all {
		want := 0
		if c == h.l1s[0] {
			want = 1
		}
		if n := allocatedSets(c); n != want {
			t.Errorf("after one load, %s has %d allocated sets, want %d", c.name, n, want)
		}
	}
	if got := h.l1s[0].sets[h.l1s[0].setIndex(LineAddr(addrA))]; len(got) != h.cfg.L1Ways {
		t.Errorf("allocated set has %d ways, want %d", len(got), h.cfg.L1Ways)
	}
}

// TestSpecOccupancyMatchesScan: the dirty-set recount agrees with a full
// scan after every operation of a random stimulus stream, across commits,
// aborts, evictions, clones and exact restores.
func TestSpecOccupancyMatchesScan(t *testing.T) {
	scan := func(h *Hierarchy) uint64 {
		var n uint64
		for _, c := range h.all {
			n += c.scanSpec()
		}
		return n
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := exactTestCfg(2 + rng.Intn(3))
		h := New(cfg)
		lc := vid.V(0)
		for step := 0; step < 40; step++ {
			driveRandom(h, rng, 1+rng.Intn(4), &lc)
			switch step % 10 {
			case 3:
				h = h.Clone()
			case 7:
				h2 := New(cfg)
				if err := h2.RestoreExact(h.AppendExact(nil)); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				h = h2
			}
			if got, want := h.SpecOccupancy(), scan(h); got != want {
				t.Fatalf("seed %d step %d: SpecOccupancy %d, full scan %d", seed, step, got, want)
			}
		}
	}
}
