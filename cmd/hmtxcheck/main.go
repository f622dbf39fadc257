// Command hmtxcheck exhaustively model-checks the HMTX coherence protocol
// (internal/check): it enumerates every reachable configuration of a bounded
// memory hierarchy under a nondeterministic stimulus alphabet, asserting the
// MOESI-San invariants and the end-to-end value properties on every edge.
// A property violation is reported with the shortest reproducing stimulus
// trace (DESIGN.md §12).
//
// Usage:
//
//	hmtxcheck [-cores N] [-addrs N] [-vids N] [-store-vals N]
//	          [-wrongpath] [-evict] [-l1ways N] [-l2ways N]
//	          [-max-states N] [-max-depth N] [-inject BUG]
//	          [-json FILE] [-emit-ckpt FILE] [-q]
//
// -max-states is checked before each node is expanded, so a truncated run
// ends with the cap plus the new successors of the last node it expanded
// (-max-states 50 at the default bounds ends with 53 states).
//
// Exit status: 0 for a clean run, 1 for a property violation, 2 for usage
// errors, including a count flag below 1 (a zero would otherwise silently
// select the default). Output is deterministic: the same bounds always
// produce the same bytes, so CI can diff reports across runs.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"hmtx/internal/check"
	"hmtx/internal/ckpt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmtxcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg check.Config
	fs.IntVar(&cfg.Cores, "cores", 2, "number of cores/L1 caches")
	fs.IntVar(&cfg.Addrs, "addrs", 1, "number of distinct line addresses")
	fs.IntVar(&cfg.VIDs, "vids", 1, "number of speculative VIDs")
	storeVals := fs.Int("store-vals", 2, "number of distinct store values")
	fs.BoolVar(&cfg.WrongPath, "wrongpath", false, "include squashed wrong-path loads (§5.1)")
	fs.BoolVar(&cfg.Evict, "evict", false, "include forced evictions (§5.4 capacity pressure)")
	fs.IntVar(&cfg.L1Ways, "l1ways", 2, "L1 ways (single set)")
	fs.IntVar(&cfg.L2Ways, "l2ways", 4, "L2 ways (single set)")
	fs.IntVar(&cfg.MaxStates, "max-states", check.DefaultMaxStates, "state cap, checked before each node is expanded: the search stops once `N` states are visited, after the last expanded node added its new successors, so a truncated run can end with more than N (0 = the default)")
	fs.IntVar(&cfg.MaxDepth, "max-depth", 0, "BFS depth cap (0 = unbounded)")
	fs.StringVar(&cfg.InjectBug, "inject", "", "re-introduce a fixed protocol bug (memsys.Bug* name) to validate the checker")
	jsonOut := fs.String("json", "", "also write the summary as JSON to this file")
	ckptOut := fs.String("emit-ckpt", "", "on a violation, write the counterexample as an hmtx-ckpt/v2 checkpoint (openable with hmtxdbg) to this file")
	quiet := fs.Bool("q", false, "suppress the text report (exit status still reflects the verdict)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "hmtxcheck: unexpected arguments; bounds are set by flags")
		return 2
	}
	// check.Config reads a zero bound as "use the default", so an explicit
	// zero (or a negative count) given here would silently run other
	// bounds; reject it instead. Upper limits are check.Config.Validate's.
	for _, b := range []struct {
		flag     string
		val, min int
	}{
		{"cores", cfg.Cores, 1}, {"addrs", cfg.Addrs, 1}, {"vids", cfg.VIDs, 1},
		{"store-vals", *storeVals, 1}, {"l1ways", cfg.L1Ways, 1}, {"l2ways", cfg.L2Ways, 1},
		{"max-states", cfg.MaxStates, 0}, {"max-depth", cfg.MaxDepth, 0},
	} {
		if b.val < b.min {
			fmt.Fprintf(stderr, "hmtxcheck: -%s must be at least %d, got %d\n", b.flag, b.min, b.val)
			return 2
		}
	}
	cfg.StoreVals = uint64(*storeVals)

	sum, err := check.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hmtxcheck: %v\n", err)
		return 2
	}
	if !*quiet {
		io.WriteString(stdout, sum.Text())
	}
	if *jsonOut != "" {
		js, jerr := sum.JSON()
		if jerr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", jerr)
			return 2
		}
		js = append(js, '\n')
		if werr := os.WriteFile(*jsonOut, js, 0o644); werr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", werr)
			return 2
		}
	}
	if *ckptOut != "" && sum.Violation != nil {
		// Replay the counterexample to its final (violating) state and emit
		// it as a "check" checkpoint; hmtxdbg re-materialises any prefix.
		ce := sum.Violation
		h, _, _ := cfg.ReplayTo(ce.Steps, len(ce.Steps))
		doc := &ckpt.Doc{Schema: ckpt.Schema, Kind: ckpt.KindCheck, Check: &ckpt.CheckState{
			Config:         cfg,
			Counterexample: ce,
			FinalState:     hex.EncodeToString(h.AppendExact(nil)),
		}}
		if werr := ckpt.WriteFile(*ckptOut, doc); werr != nil {
			fmt.Fprintf(stderr, "hmtxcheck: %v\n", werr)
			return 2
		}
	}
	if !sum.OK() {
		return 1
	}
	return 0
}
