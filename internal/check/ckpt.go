package check

import (
	"encoding/json"
	"fmt"

	"hmtx/internal/memsys"
)

// Checkpoint support (hmtx-ckpt/v2, DESIGN.md §18): counterexamples are
// debugger entry points. hmtxcheck -emit-ckpt serialises the failing trace
// and final state; hmtxdbg re-materialises any prefix of it with ReplayTo.

// UnmarshalJSON parses the mnemonic form produced by MarshalJSON, so
// serialised counterexamples round-trip through checkpoint documents.
func (o *Op) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range opNames {
		if n == s {
			*o = Op(i)
			return nil
		}
	}
	return fmt.Errorf("check: unknown stimulus op %q", s)
}

// ReplayTo replays the first k steps (clamped to len(steps)) from the
// initial state and returns the live hierarchy for inspection, plus the
// number of steps actually applied. A property violation stops the replay
// and is returned alongside the hierarchy in the state that exhibits it —
// for a Counterexample's own trace that is the expected outcome of the
// final step, not a failure of the replay.
func (c Config) ReplayTo(steps []Stimulus, k int) (*memsys.Hierarchy, int, error) {
	cfg := c.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if k > len(steps) {
		k = len(steps)
	}
	m := cfg.newMachine()
	for i := 0; i < k; i++ {
		if _, err := cfg.applyStimulus(m, steps[i]); err != nil {
			return m.h, i + 1, err
		}
	}
	return m.h, k, nil
}
