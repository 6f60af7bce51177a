// Package vet anchors the divtopk-vet static-analysis suite: two
// repo-specific analyzers for bug classes the test suite cannot see, because
// the bug leaves every answer right and breaks only an interleaving or a
// latency:
//
//   - curload: one atomic snapshot load per function — a second cur.Load(),
//     or mixing cur.Load() with Version(), can observe a torn
//     snapshot/version pair across a concurrent Update. It alone kills the
//     mutant where Matcher.run keys its cache entry with m.Version() after
//     loading g: the window is a few instructions wide, and three -race runs
//     of the concurrency tests pass with it.
//   - lockhold: no heavy computation (Compute*/Warm*, condensation, candidate
//     and product builds, incremental advance, evaluate, delta application)
//     and no channel send while a sync.Mutex/RWMutex write lock acquired in
//     the same function is held. It alone kills the mutants where
//     BoundsCache.countsFor fills a label under c.mu and where warmState
//     builds a pattern state under warm.mu: both answer correctly and only
//     serialize every other query behind one traversal.
//
// Each analyzer stays because a mutant of its class survives the tests. The
// suite once had seven more (snapmut, verkey, arenapair, detorder, detflow,
// errflow, swapver); they were deleted when mutation testing showed the tests
// kill every result-changing mutant of their classes anyway — every answer
// is checked as a function of (G, Q) alone. A new analyzer has to clear the
// same bar: a seeded mutant that only it catches.
//
// The module is nested under tools/vet so the main divtopk module stays
// dependency-free. The build environment is offline, so instead of
// golang.org/x/tools/go/analysis the analyzers are written against the
// source-compatible stdlib-only subset in ./analysis (same Analyzer / Pass /
// Diagnostic shape; swap the import path to port to the real framework).
//
// # Dataflow engine
//
// Both analyzers are path-sensitive, on a shared dataflow core:
//
// analysis/cfg builds an intraprocedural control-flow graph per function
// body: basic blocks of statement/expression nodes, edges for
// if/for/range/switch/select branches and loop back edges, plus the edges
// Go's control quirks demand — defer bodies on the exit path, panic/fatal
// calls terminating a block, labeled break/continue/goto. Range heads
// re-emit the key/value idents as top-level definition nodes, which is
// what lets analyzers reset per-object state on loop rebinding instead of
// dragging facts around the back edge. On top of the graph, cfg.Fixpoint
// runs a forward worklist iteration with a caller-supplied join: lockhold
// joins by intersection (a lock is held only if held on every path),
// curload by max (the worst path counts). Transfer functions are pure;
// after the fixpoint converges each analyzer replays every reachable block
// once more with reporting hooks enabled, so diagnostics land at the first
// statement where the invariant actually breaks on some path.
//
// analysis/facts carries per-function summaries across package boundaries.
// A fact is a small value attached to a *types.Func and keyed by
// "pkgpath:Func" / "pkgpath:Type.Method". The catalog:
//
//   - curload.LoadsCur{Loads} — zero-arg accessors that perform a
//     cur.Load() internally; call sites count them as loads.
//   - lockhold.LockEffects{Sets, Clears} — methods that leave a
//     receiver-rooted lock held for their caller, or release one the caller
//     holds.
//
// One driver: ./bin/divtopk-vet analyzes packages in dependency order
// against one shared facts.Set, so a package's facts are in the set before
// its importers are analyzed. A two-package test drives the real binary
// over a LoadsCur finding that exists only if the fact crosses the import.
//
// To write a fact-driven analyzer: declare the fact type (a pointer to a
// struct with an AFact method); in Run, phase 1 walks FuncDecls exporting
// facts with pass.ExportObjectFact, iterated to a fixpoint so same-package
// helpers resolve in any declaration order; phase 2 builds a cfg per body
// (and per FuncLit), runs Fixpoint with the analyzer's join, and replays
// reachable blocks with report hooks, consuming callee facts via
// pass.ImportObjectFact where a call's effect depends on them.
// analysistest places each testdata/src directory on a GOPATH-style
// loader, analyzes dependencies facts-only, and checks diagnostics against
// // want comments.
//
// Run the whole suite from the repository root with:
//
//	make lint
//
// or directly:
//
//	go -C tools/vet build -o ../../bin/divtopk-vet ./cmd/divtopk-vet
//	./bin/divtopk-vet ./...
//
// A diagnostic can be suppressed with a reviewed, justified comment on the
// flagged line or the line directly above it:
//
//	//lint:allow <analyzer> <justification>
//
// The justification is mandatory; a bare //lint:allow is itself a finding,
// and one that no longer suppresses anything is reported as stale.
//
// Test files (_test.go) are exempt from all analyzers: the invariants guard
// production code, and tests deliberately drive the raw primitives to
// exercise them.
package vet
