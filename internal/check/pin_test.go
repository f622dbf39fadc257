package check

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hmtx/internal/memsys"
)

// TestSearchPinned pins the search itself, not just its verdict: for each
// bound, the state, edge and depth counts and a SHA-256 over the canonical
// keys of the visited states in BFS order. Any change to the exploration
// order, to the MaxStates cap semantics or to a single byte of a canonical
// key changes a digest. For the injected bugs it also pins the text of the
// counterexample trace.
func TestSearchPinned(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		cfg                  Config
		states, edges, depth int
		keys                 string // SHA-256 of the BFS-ordered canonical keys
		trace                string // counterexample trace, for violating bounds
	}{
		{
			name:   "ci-bound-capped",
			cfg:    Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true, WrongPath: true, MaxStates: 20000},
			states: 20001, edges: 232102, depth: 10,
			keys: "191b03f1f4b567927a4fc7e27df4be7e813b1f3f4fc9b845d6a80c74d8a3c74a",
		},
		{
			name:   "evict",
			cfg:    Config{Cores: 2, Addrs: 1, VIDs: 1, Evict: true},
			states: 3820, edges: 64244, depth: 13,
			keys: "2a5bbdeb559fbd255ec11f8c5161362df58eb8a42dfef1c647fc9c1edb9648e9",
		},
		{
			name:   "wrongpath",
			cfg:    Config{Cores: 2, Addrs: 1, VIDs: 1, WrongPath: true},
			states: 3256, edges: 51728, depth: 10,
			keys: "370da03df9c271289451c261857eef48188cfdee572e33aff98035f8dd828acb",
		},
		{
			name:   "3cores",
			cfg:    Config{Cores: 3, Addrs: 1, VIDs: 1},
			states: 2246, edges: 44668, depth: 9,
			keys: "3c14e63d97f134a5e54fe2ec745c769e46ad5051c2256437d2151960acc6c78c",
		},
		{
			name:   memsys.BugStaleCopyOnConvert,
			cfg:    Config{Cores: 2, Addrs: 1, VIDs: 1, InjectBug: memsys.BugStaleCopyOnConvert},
			states: 70, edges: 363, depth: 3,
			keys: "b1ce543e0740e0f310cc685a4296e8c33ca95d3149836e949c00678ff1d76061",
			trace: "" +
				"         0: store   : core 0 line 0x0 vid 1 val 1\n" +
				"         1: load    : core 1 line 0x0 vid 1\n" +
				"         2: store   : core 0 line 0x0 vid 1 val 2\n",
		},
		{
			name:   memsys.BugDupVersionOnMigrate,
			cfg:    Config{Cores: 2, Addrs: 1, VIDs: 2, InjectBug: memsys.BugDupVersionOnMigrate},
			states: 550, edges: 2966, depth: 4,
			keys: "8608a2bde3969106c24723ffdb4aeff00786483f971484b31399c77ebfedd022",
			trace: "" +
				"         0: load    : core 0 line 0x0 vid 1\n" +
				"         1: load    : core 1 line 0x0 vid 1\n" +
				"         2: commit  : vid 1\n" +
				"         3: load    : core 1 line 0x0 vid 2\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := sha256.New()
			sum, err := search(tc.cfg, func(key string) {
				d.Write([]byte{byte(len(key) >> 8), byte(len(key))})
				d.Write([]byte(key))
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := hex.EncodeToString(d.Sum(nil))
			trace := ""
			if sum.Violation != nil {
				trace = sum.Violation.Trace()
			}
			t.Logf("states=%d edges=%d depth=%d keys=%s\ntrace:\n%s", sum.States, sum.Edges, sum.Depth, keys, trace)
			if sum.States != tc.states || sum.Edges != tc.edges || sum.Depth != tc.depth {
				t.Errorf("states/edges/depth = %d/%d/%d, pinned %d/%d/%d",
					sum.States, sum.Edges, sum.Depth, tc.states, tc.edges, tc.depth)
			}
			if keys != tc.keys {
				t.Errorf("visited-key digest %s, pinned %s", keys, tc.keys)
			}
			if trace != tc.trace {
				t.Errorf("counterexample trace:\n%s\npinned:\n%s", trace, tc.trace)
			}
		})
	}
}
