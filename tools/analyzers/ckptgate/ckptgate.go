// Package ckptgate keeps checkpoint capture and restore off domain-worker
// goroutines in the intra-run simulation layer (internal/engine,
// internal/memsys).
//
// An hmtx-ckpt/v2 snapshot (DESIGN.md §18) is a whole-machine observation:
// CaptureCkpt walks every architectural counter, AppendExact serialises
// every cache line of every level, and the internal/ckpt document functions
// stitch those into the versioned byte-exact format. The byte-determinism
// contract for checkpoints holds only because capture happens on the
// coordinator at a segment boundary, when every domain has drained and the
// machine is in its canonical serial state. A capture (or worse, a restore)
// issued from a domain goroutine would serialise a torn mid-quantum state —
// bytes that depend on the host scheduler, which is exactly what the format
// forbids.
//
// The reachability is the valueflow goroutine closure (DESIGN.md §17) over
// the package call graph, the same closure domaindrain v2 uses: a go
// statement's entry, launched function literals, every statically
// resolvable callee, and functions or methods referenced as values inside
// reachable code. Inside reachable code the analyzer reports:
//
//   - calls into hmtx/internal/ckpt — document capture, restore, read or
//     write has no business on a worker;
//   - calls to the snapshot methods of the checkpointable state holders
//     (CaptureCkpt/RestoreCkpt in engine, prof and metrics; AppendExact/
//     RestoreExact in memsys) — these are the primitives a torn capture
//     would be assembled from;
//   - calls to functions in other packages whose exported ckpt fact says
//     they (transitively) do one of the above: the analyzer computes a
//     bottom-up summary for every package it runs on and exports it as
//     object facts, so laundering a capture through an out-of-package
//     helper is caught at the call site.
//
// Buffering per-core records, publishing bounds and channel handoffs remain
// fine; checkpointing is a coordinator-only, boundary-only activity. Test
// files are exempt: test goroutines are not simulation schedulers.
package ckptgate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hmtx/tools/analyzers/analysis"
	"hmtx/tools/analyzers/analysis/callgraph"
	"hmtx/tools/analyzers/analysis/valueflow"
)

var Analyzer = &analysis.Analyzer{
	Name:    "ckptgate",
	Doc:     "forbids checkpoint capture/restore (internal/ckpt, snapshot methods) on domain goroutines in engine/memsys",
	Version: "1",
	Run:     run,
}

// ckptPkgs are the package-path suffixes all of whose functions count as
// checkpoint operations.
var ckptPkgs = []string{
	"internal/ckpt",
}

// snapNames are the snapshot primitives; a call counts when the name matches
// and the receiver's package is one of snapPkgs.
var snapNames = map[string]bool{
	"CaptureCkpt":  true,
	"RestoreCkpt":  true,
	"AppendExact":  true,
	"RestoreExact": true,
}

// snapPkgs are the package-path suffixes whose snapNames methods are
// checkpoint primitives.
var snapPkgs = []string{
	"internal/engine",
	"internal/memsys",
	"internal/prof",
	"internal/metrics",
}

// ckptFact lists the checkpoint operations a function (transitively)
// performs, so call sites in other packages can be judged.
type ckptFact struct {
	Ops []string
}

func (*ckptFact) AFact() {}

func run(pass *analysis.Pass) (any, error) {
	cg := callgraph.Build(pass)
	isTest := func(n ast.Node) bool {
		return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
	}

	// Phase 1, every package: bottom-up transitive ckpt summaries, exported
	// as facts — an engine worker calling a helper from some other package
	// needs the helper's summary.
	sums := map[*types.Func][]string{}
	opsOf := func(fn *types.Func) []string {
		if s, ok := sums[fn]; ok {
			return s
		}
		var f ckptFact
		if pass.ImportObjectFact(fn, &f) {
			return f.Ops
		}
		return nil
	}
	order := cg.PostOrder()
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, n := range order {
			if n.Decl.Body == nil || isTest(n.Decl) {
				continue
			}
			set := map[string]bool{}
			ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if name, ok := ckptCall(pass, call); ok {
						set[name] = true
					}
				}
				return true
			})
			for _, callee := range n.Callees {
				for _, s := range opsOf(callee) {
					set[s] = true
				}
			}
			cur := make([]string, 0, len(set))
			for s := range set {
				cur = append(cur, s)
			}
			sort.Strings(cur)
			if !equalStrings(sums[n.Fn], cur) {
				sums[n.Fn] = cur
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, ops := range sums {
		if len(ops) > 0 {
			pass.ExportObjectFact(fn, &ckptFact{Ops: ops})
		}
	}

	// Phase 2: reporting, scoped to the simulation layer.
	pkg := strings.TrimSuffix(pass.PkgPath, "_test")
	if !strings.HasSuffix(pkg, "internal/engine") && !strings.HasSuffix(pkg, "internal/memsys") {
		return nil, nil
	}

	reach := valueflow.GoReachable(pass, cg, false)
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	checkCall := func(call *ast.CallExpr, via string) {
		if name, ok := ckptCall(pass, call); ok {
			report(call.Pos(), "%s called on a domain goroutine (via %s); checkpoints capture whole-machine state and must run on the coordinator at a segment boundary", name, via)
			return
		}
		callee := callgraph.StaticCallee(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == pass.Pkg {
			return // in-package callees are checked in their own bodies
		}
		if ops := opsOf(callee); len(ops) > 0 {
			report(call.Pos(), "%s checkpoints (%s) when called on a domain goroutine (via %s); checkpoints must run on the coordinator at a segment boundary",
				funcName(pass, callee), strings.Join(ops, ", "), via)
		}
	}
	checkBody := func(body *ast.BlockStmt, via string) {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(call, via)
			}
			return true
		})
	}

	for fn, via := range reach.Funcs {
		n := cg.Node(fn)
		if n == nil || n.Decl == nil || n.Decl.Body == nil || isTest(n.Decl) {
			continue
		}
		checkBody(n.Decl.Body, via)
	}
	for _, lit := range reach.Lits {
		checkBody(lit.Body, lit.Via)
	}
	// The go statement's own call: `go ckpt.WriteFile(...)` or `go helper()`
	// with an imported, checkpointing helper never appears inside a
	// reachable body, so it is checked at the root.
	for _, file := range pass.Files {
		if isTest(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				if _, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); !isLit {
					checkCall(gs.Call, "goroutine entry")
				}
			}
			return true
		})
	}
	return nil, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func funcName(pass *analysis.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + "." + name
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// ckptCall reports whether call invokes a checkpoint operation: anything in
// the internal/ckpt package, or a snapshot primitive of a checkpointable
// state holder.
func ckptCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	for _, suffix := range ckptPkgs {
		if strings.HasSuffix(path, suffix) {
			return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name()), true
		}
	}
	if snapNames[fn.Name()] {
		for _, suffix := range snapPkgs {
			if strings.HasSuffix(path, suffix) {
				return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name()), true
			}
		}
	}
	return "", false
}

// calleeFunc resolves the called function or method, including methods
// reached through interface values (which have no static callee but still
// name the API being invoked).
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
