package check

import "testing"

// BenchmarkSearch times the CI bound capped at 20,000 states, the search the
// perfbench check workload runs.
func BenchmarkSearch(b *testing.B) {
	cfg := Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true, WrongPath: true, MaxStates: 20000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if sum.States != 20001 || sum.Edges != 232102 {
			b.Fatalf("states=%d edges=%d, want 20001 and 232102", sum.States, sum.Edges)
		}
	}
}

// TestSetupAllocs pins what a search capped at one state allocates: that is
// everything Run does before its first expansion, which perfbench times as
// the checker's set-up. The machine free list, the spare and the stimulus
// scratch start at the first expansion, so they cost a capped search
// nothing. (Before machines were pooled, this search made 37 allocations.)
func TestSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime shadow allocations break AllocsPerRun; contract pinned in non-race runs")
	}
	cfg := Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true, WrongPath: true, MaxStates: 1}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > 29 {
		t.Fatalf("a search capped at one state made %v allocations, want at most 29", n)
	}
}
