// Package check is a Murphi-style explicit-state model checker for the HMTX
// coherence protocol. It enumerates every configuration of a small bounded
// system — a few cores, line addresses and VIDs under a nondeterministic
// stimulus alphabet — reachable by driving the *real* internal/memsys
// implementation, not a re-specification: each explored edge copies the
// parent's hierarchy into a pooled one (memsys snapshot support), applies one
// stimulus, asserts the MOESI-San invariants plus end-to-end value properties
// against a sequential oracle, and canonicalizes the result for the visited
// set (DESIGN.md §12). A copy is kept only when its state is new; otherwise
// it is overwritten by the next edge, so the per-edge path does not allocate.
//
// The search is breadth-first, so the first property violation found is
// reported with a shortest stimulus trace, replayable with Config.Replay.
// Everything is deterministic: same bounds, byte-identical output.
package check

import (
	"fmt"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// Config bounds the checked system and selects the stimulus alphabet.
type Config struct {
	// Cores is the number of cores/L1 caches (≥ 2 for cross-core traffic).
	Cores int
	// Addrs is the number of distinct line addresses stimuli may access.
	// All of them map to the same cache set, maximising version pressure.
	Addrs int
	// VIDs is the number of speculative transaction VIDs (1..VIDs); VID 0
	// is non-speculative execution.
	VIDs int
	// StoreVals is the number of distinct values stores may write (1..N).
	// Two suffices to distinguish versions; more widens the value space.
	StoreVals uint64
	// WrongPath adds squashed wrong-path loads (§5.1) to the alphabet.
	WrongPath bool
	// Evict adds forced evictions (capacity pressure, §5.4) to the
	// alphabet, from every cache and for every bounded address.
	Evict bool
	// L1Ways and L2Ways size the single-set caches (defaults 2 and 4).
	L1Ways, L2Ways int
	// MaxStates caps the search; 0 means DefaultMaxStates. The cap is
	// checked before each node is expanded: once at least MaxStates states
	// have been visited, the search stops with Summary.Truncated set. The
	// node expanded last may still add all its new successors, so a
	// truncated search ends with somewhat more than MaxStates states (the
	// CI bound capped at 20,000 ends with 20,001).
	MaxStates int
	// MaxDepth bounds the BFS depth; 0 means unbounded.
	MaxDepth int
	// InjectBug forwards a memsys.Bug* constant, deliberately re-breaking
	// a fixed protocol bug so tests can assert the checker finds it.
	InjectBug string
}

// DefaultMaxStates caps the search when Config.MaxStates is zero.
const DefaultMaxStates = 1 << 21

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Addrs == 0 {
		c.Addrs = 1
	}
	if c.VIDs == 0 {
		c.VIDs = 1
	}
	if c.StoreVals == 0 {
		c.StoreVals = 2
	}
	if c.L1Ways == 0 {
		c.L1Ways = 2
	}
	if c.L2Ways == 0 {
		c.L2Ways = 4
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	return c
}

// Validate reports whether the bounds are usable.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > 8:
		return fmt.Errorf("check: Cores must be in 1..8, got %d", c.Cores)
	case c.Addrs < 1 || c.Addrs > 8:
		return fmt.Errorf("check: Addrs must be in 1..8, got %d", c.Addrs)
	case c.VIDs < 1 || c.VIDs > 15:
		return fmt.Errorf("check: VIDs must be in 1..15, got %d", c.VIDs)
	case c.StoreVals < 1 || c.StoreVals > 8:
		return fmt.Errorf("check: StoreVals must be in 1..8, got %d", c.StoreVals)
	case c.L1Ways < 1 || c.L2Ways < 1:
		return fmt.Errorf("check: cache ways must be positive")
	case c.MaxStates < 0 || c.MaxDepth < 0:
		return fmt.Errorf("check: negative bound")
	case c.InjectBug != "" && c.InjectBug != memsys.BugDupVersionOnMigrate && c.InjectBug != memsys.BugStaleCopyOnConvert:
		return fmt.Errorf("check: unknown InjectBug %q", c.InjectBug)
	}
	return nil
}

// memsysConfig builds the bounded hardware the checker drives: single-set
// caches (so the bounded addresses all contend), unit latencies (timing is
// irrelevant to reachability), MOESI-San always on.
func (c Config) memsysConfig() memsys.Config {
	bits := 1
	for (1<<bits)-1 < c.VIDs {
		bits++
	}
	return memsys.Config{
		Cores:      c.Cores,
		L1Size:     c.L1Ways * memsys.LineSize,
		L1Ways:     c.L1Ways,
		L2Size:     c.L2Ways * memsys.LineSize,
		L2Ways:     c.L2Ways,
		L1Lat:      1,
		L2Lat:      1,
		MemLat:     1,
		BusLat:     1,
		VIDSpace:   vid.Space{Bits: uint(bits)},
		SLAEnabled: true,
		Sanitize:   true,
		InjectBug:  c.InjectBug,
	}
}

// violation is a property failure: the checker's terminal finding.
type violation struct {
	Property string // "invariant", "value", "linearization" or "abort-erasure"
	Detail   string
}

func (v *violation) Error() string { return v.Property + ": " + v.Detail }

// lineAddrs returns the bounded line addresses, the scope of canonical
// encodings and property probes.
func (c Config) lineAddrs() []memsys.Addr {
	addrs := make([]memsys.Addr, c.Addrs)
	for i := range addrs {
		addrs[i] = addrOf(i)
	}
	return addrs
}

// machine is one materialised checker state: the hierarchy, its sequential
// oracle, and the abort-erasure probe's scratch.
type machine struct {
	h    *memsys.Hierarchy
	o    *oracle
	vers []memsys.Line
}

// newMachine returns the initial state: all caches invalid, memory zero.
func (c Config) newMachine() *machine {
	return &machine{h: memsys.New(c.memsysConfig()), o: newOracle(c.Addrs, c.VIDs)}
}

// copyFrom overwrites m with a deep copy of src's state, reusing m's
// storage.
func (m *machine) copyFrom(src *machine) {
	src.h.CloneInto(m.h)
	src.o.cloneInto(m.o)
}

// appendKey appends m's visited-set key to buf: the exact canonical
// encoding of the hierarchy plus the oracle (not a hash, so fingerprint
// collisions cannot silently merge distinct states).
func (m *machine) appendKey(buf []byte, addrs []memsys.Addr) []byte {
	return m.o.appendCanon(m.h.AppendCanonical(buf, addrs))
}

// applyStimulus applies s to m in place and checks every property on the
// resulting state. A Result.Conflict makes the edge compound: the
// hierarchy demands an abort, so AbortAll follows atomically, exactly as the
// engine reacts (engine aborts all uncommitted transactions on any conflict).
// Panics — MOESI-San assertions, findHit double-hit detection — are
// converted into invariant violations. The returned Result is the conflict
// that made the edge compound, if any; Replay turns it into the edge's note
// for counterexample traces.
func (c Config) applyStimulus(m *machine, s Stimulus) (conflict memsys.Result, err error) {
	h, o := m.h, m.o
	defer func() {
		if r := recover(); r != nil {
			err = &violation{Property: "invariant", Detail: fmt.Sprint(r)}
		}
	}()

	ai := int(s.Addr / memsys.LineSize)
	aborted := false
	handleConflict := func(res memsys.Result) bool {
		if !res.Conflict {
			return false
		}
		h.AbortAll()
		o.abortAll()
		aborted = true
		conflict = res
		return true
	}

	switch s.Op {
	case OpLoad:
		eff := s.VID
		if eff == vid.NonSpec {
			eff = h.LC()
		}
		val, res := h.Load(s.Core, s.Addr, s.VID)
		if !handleConflict(res) {
			if want := o.visible(ai, eff); val != want {
				return conflict, &violation{
					Property: "value",
					Detail:   fmt.Sprintf("load core %d line %#x vid %d returned %d, oracle expects %d", s.Core, s.Addr, s.VID, val, want),
				}
			}
		}
	case OpStore:
		res := h.Store(s.Core, s.Addr, s.Val, s.VID)
		if !handleConflict(res) {
			o.store(ai, s.VID, s.Val)
		}
	case OpWrongPath:
		// The architectural value of a squashed load is irrelevant; the
		// stimulus only matters for the shadow/SLA machinery it drives.
		_, res := h.WrongPathLoad(s.Core, s.Addr, s.VID)
		handleConflict(res)
	case OpCommit:
		h.Commit(s.VID)
		o.commit(s.VID)
	case OpAbortAll:
		h.AbortAll()
		o.abortAll()
		aborted = true
	case OpEvict:
		if ok, res := h.Evict(s.Cache, s.Addr); ok {
			handleConflict(res)
		}
	case OpVIDReset:
		// Legal only once every VID of the epoch has committed (§4.6);
		// the enumeration guarantees LC == VIDs here, so the oracle has
		// no outstanding writes left to carry over.
		h.VIDReset()
	}

	// Property: committed-value linearization. The committed image the
	// hierarchy serves to a non-speculative observer must always equal the
	// oracle's — this is also what makes lost speculative writes visible
	// the moment their transaction commits.
	for i := 0; i < c.Addrs; i++ {
		if got, want := h.PeekWord(addrOf(i)), o.committed[i]; got != want {
			return conflict, &violation{
				Property: "linearization",
				Detail:   fmt.Sprintf("committed value at line %#x is %d, oracle expects %d", addrOf(i), got, want),
			}
		}
	}

	// Property: abort erases all VID-tagged state (§4.4): no speculative
	// line and no wrong-path shadow mark survives an abort sweep.
	if aborted {
		for ci := 0; ci <= c.Cores; ci++ {
			for i := 0; i < c.Addrs; i++ {
				m.vers = h.AppendVersions(m.vers[:0], ci, addrOf(i))
				for _, ln := range m.vers {
					if ln.St.Speculative() || ln.ShadowHigh != 0 {
						return conflict, &violation{
							Property: "abort-erasure",
							Detail:   fmt.Sprintf("cache %d line %#x still holds %s after abort", ci, addrOf(i), ln.String()),
						}
					}
				}
			}
		}
	}

	// Property: the full MOESI-San invariant set (1..9) over the whole
	// hierarchy, not just the lines the stimulus touched.
	if ierr := h.CheckInvariants(); ierr != nil {
		return conflict, &violation{Property: "invariant", Detail: ierr.Error()}
	}
	return conflict, nil
}

// edge records how a state was first reached, for counterexample paths.
type edge struct {
	parent int32
	depth  int32
	stim   Stimulus
}

// qent is a frontier entry: a node and its materialised state.
type qent struct {
	idx int32
	m   *machine
}

// Run explores the bounded state space to exhaustion (or to the state/depth
// bounds) and reports what it found. The error return is for invalid
// configurations only; property violations are reported in the Summary.
func Run(cfg Config) (*Summary, error) { return search(cfg, nil) }

// search is Run with an optional visit hook, called with the canonical key
// of every new state in BFS order, the initial state first.
//
// Each successor is copied into a spare machine and kept only if its state
// is new; a frontier node's machine goes back to the free list once the node
// is expanded. Both start empty, so a search that stops before its first
// expansion allocates nothing for them.
func search(cfg Config, visit func(key string)) (*Summary, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	addrs := cfg.lineAddrs()
	sum := &Summary{Config: cfg}

	m0 := cfg.newMachine()
	buf := m0.appendKey(make([]byte, 0, 1024), addrs) // room for most keys
	key0 := string(buf)
	visited := map[string]struct{}{key0: {}}
	if visit != nil {
		visit(key0)
	}
	nodes := []edge{{parent: -1}}
	queue := []qent{{idx: 0, m: m0}}

	var free []*machine
	var spare *machine
	var stimBuf []Stimulus
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		queue[head] = qent{} // the machine now belongs to this iteration
		depth := nodes[cur.idx].depth
		if cfg.MaxDepth > 0 && int(depth) >= cfg.MaxDepth {
			free = append(free, cur.m)
			continue
		}
		if len(nodes) >= cfg.MaxStates {
			sum.Truncated = true
			break
		}
		stimBuf = cfg.enabled(cur.m.h.LC(), stimBuf)
		for _, s := range stimBuf {
			if spare == nil {
				if n := len(free); n > 0 {
					spare, free = free[n-1], free[:n-1]
				} else {
					spare = cfg.newMachine()
				}
			}
			spare.copyFrom(cur.m)
			sum.Edges++
			_, err := cfg.applyStimulus(spare, s)
			if err != nil {
				sum.States = len(visited)
				sum.Violation = cfg.buildCounterexample(nodes, cur.idx, s, err)
				return sum, nil
			}
			buf = spare.appendKey(buf[:0], addrs)
			if _, ok := visited[string(buf)]; ok {
				continue // spare is overwritten by the next edge
			}
			key := string(buf)
			visited[key] = struct{}{}
			if visit != nil {
				visit(key)
			}
			nodes = append(nodes, edge{parent: cur.idx, depth: depth + 1, stim: s})
			queue = append(queue, qent{idx: int32(len(nodes) - 1), m: spare})
			spare = nil
			if int(depth)+1 > sum.Depth {
				sum.Depth = int(depth) + 1
			}
		}
		free = append(free, cur.m)
	}
	sum.States = len(visited)
	sum.Exhausted = !sum.Truncated
	return sum, nil
}

// buildCounterexample reconstructs the shortest stimulus path to the failing
// edge and replays it from scratch to annotate each step.
func (c Config) buildCounterexample(nodes []edge, parent int32, failing Stimulus, err error) *Counterexample {
	var steps []Stimulus
	for i := parent; i > 0; i = nodes[i].parent {
		steps = append(steps, nodes[i].stim)
	}
	for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
		steps[l], steps[r] = steps[r], steps[l]
	}
	steps = append(steps, failing)
	ce := &Counterexample{Property: "unknown", Detail: err.Error(), Steps: steps}
	if v, ok := err.(*violation); ok {
		ce.Property, ce.Detail = v.Property, v.Detail
	}
	ce.Notes, _ = c.Replay(steps)
	return ce
}

// Replay re-runs a stimulus sequence from the initial state, returning the
// per-step notes (conflict annotations) and the first property violation hit,
// if any. Replaying a Counterexample's Steps must reproduce its violation on
// the final step; anything else means nondeterminism and is itself a bug.
func (c Config) Replay(steps []Stimulus) (notes []string, err error) {
	cfg := c.withDefaults()
	if verr := cfg.Validate(); verr != nil {
		return nil, verr
	}
	m := cfg.newMachine()
	for _, s := range steps {
		conflict, serr := cfg.applyStimulus(m, s)
		note := ""
		if conflict.Conflict {
			note = "conflict (" + conflict.Cause + ") -> abort-all"
		}
		notes = append(notes, note)
		if serr != nil {
			return notes, serr
		}
	}
	return notes, nil
}
