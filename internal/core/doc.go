// Package core implements the paper's primary contribution: the
// early-termination top-k matching algorithms of §4 (TopKDAG for DAG
// patterns, TopK for cyclic patterns, and their non-optimized variants
// TopKDAGnopt/TopKnopt), plus the find-all baseline Match they are compared
// against, all over one incremental propagation engine. One entry point,
// TopK, runs all four: the pattern's shape selects the paper's DAG or cyclic
// algorithm, and Options.Strategy the optimized or nopt variant.
//
// Given a pattern Q with output node uo, a graph G and k, the engine feeds
// batches of leaf candidates, propagates match status and relevant sets
// upward through the SCC units of Q, maintains per-candidate lower/upper
// bounds l ≤ δr ≤ h, and stops as soon as Proposition 3 holds: the k best
// discovered matches' smallest lower bound dominates every other live
// candidate's upper bound — without computing the entire M(Q,G).
//
// The facade and the daemon answer top-k with MatchBaselineOpts cut at k.
// On mined patterns the engine's match ratio is 100 %, so TopK does Match's
// work plus its own, and its answer depends on where it stopped. The engine
// serves TopKDH (order-dependent by design) and the §6 reproduction in
// internal/bench. Top-k returns to it only when its termination is canonical
// (for the weakest member m and every live non-member c, h(c) < l(m), or
// h(c) = l(m) and node(c) > node(m)) and a feed order makes it beat Match.
//
// There is one kernel: both the engine and the find-all baseline run over
// the materialized product CSR, optionally handed pre-settled stage inputs
// through Options.Prebuilt, and both get their relevant sets from one sweep,
// simulation.SweepRelevant. The frozen pre-CSR implementation survives as a
// test oracle only (simulation/reference.go, composed into a Result by
// internal/oracle); nothing in this package can select it.
//
// # The engine and why its counters are sound
//
// The engine works on the candidate product graph (simulation.Product): one
// node per candidate pair (u,v), one edge per (query edge, data edge) pair
// between candidates. A pair is unknown, matched or dead, and separately
// finalized or not; every argument below rests on two monotonicity facts.
// A matched pair never reverts (the boolean system Xv = ∧_j ∨_i X_vi is
// monotone in the fed leaves), and a finalized pair never changes again in
// any respect — status or relevant set.
//
//   - satCnt[slot] counts the matched successors behind one (pair, query
//     edge). Because matches are permanent, satCnt > 0 is a stable witness
//     for that disjunction; a pair of a trivial unit whose every edge has
//     one is a match, by induction over the rank of its query node.
//   - unfinCnt[slot] counts the successors behind the slot that are not
//     finalized. When it reaches 0 with satCnt = 0, every successor is
//     finalized and none is matched, so all are dead for good: the
//     disjunction is false and the pair dies. This is the lazy
//     false-resolution of the paper's formula semantics; nothing is refined
//     eagerly at initialization.
//   - unfinTotal[pair] is the sum of the pair's unfinCnt. At 0 all inputs of
//     the pair are final, so its own status and relevant set are too: a
//     matched pair finalizes (from then on l = h = δr), any other dies.
//     Pairs on product cycles wait on each other and never drain it
//     pairwise; their unit resolves them together.
//   - unitOutstanding[unit] counts, for a nontrivial unit (a cyclic SCC of
//     Q), the external events that can still change it: finalizations of
//     cross-unit successors of its pairs — counted from the slot lengths at
//     initialization and decremented on every such finalization whether the
//     parent is alive or dead, so the two always agree — plus its leaf pairs
//     not yet fed. At 0 nothing outside the unit can move any more; one
//     last refinement runs on final inputs, its survivors finalize and the
//     rest die.
//   - refineUnit computes the greatest fixpoint of the simulation condition
//     inside one unit, over the pairs whose cross-unit edges are satisfied.
//     Outside support only grows, so successive fixpoints only grow and a
//     pair matched by an earlier refinement always survives a later one
//     (the engine panics if one does not).
//   - drainEvents processes matches first, then refinements in ascending
//     unit rank, and only then finalization events: every pair the current
//     inputs support is matched before per-pair resolution may declare an
//     unmatched pair dead.
//
// After every batch the R phase gives each matched pair its matched closure,
// the data nodes it reaches through matched pairs: it recomputes the matched
// ancestors of the new matches with the shared sweep. Any other pair's set
// is final for the batch, since a closure grows only through a new match it
// reaches. The closure is within R(u,v), so its size l never exceeds δr; the
// upper bound h comes from an index that overcounts descendants (bounds.go),
// so h ≥ δr; finalization makes both exact. checkTermination is Proposition
// 3 on those bounds.
//
// Relevant sets are kept only on the tracked region: the pairs a live output
// pair reaches through live pairs once the init-time deaths are resolved
// (markTracked, one DFS over the product before the first batch). That loses
// nothing. A matched output pair's closure runs along matched paths, and a
// matched pair never dies, so every pair on such a path was alive after the
// init cascade and is tracked. Each output set therefore holds what it would
// hold were every pair tracked, and checkTermination and the hook read
// nothing else. On the tracked benchmark's mined patterns the region holds
// about 15 % of the matched pairs of the output node and its descendants.
//
// # What an answer depends on
//
// Every run here is a pure function of its inputs, and the inputs are few.
// The find-all path (MatchBaselineOpts, and TopKDiv on top of it) reads the
// pattern's evaluation state and nothing else: the candidate index, the
// product CSR over it and the simulation fixpoint — PrebuiltEval's
// {CI, Prod, Sim}, or the same three rebuilt from (graph, pattern). The
// early-termination engine (TopK, and TopKDH through its hook) reads the
// candidate index and the product, plus the initial upper bounds of the
// output node's candidates. Under BoundTight those come from the product
// too; under a BoundsCache they are one vector — BoundsCache.OutputBounds,
// Σ over the output node's DescLabels of the count rows at the output node's
// candidates — and computeUpperBounds, its only caller in the engine, is the
// single place a run touches the index. The graph itself is consulted for
// its node count and label dictionary only. That is the carry-over contract
// the matcher's commit pass rests on (the matcher runs the engine under its
// snapshot's BoundsCache, never BoundTight): when a delta leaves a pattern's
// state untouched (simulation.IncCompute reports TouchedPairs == 0), a
// find-all answer is still the answer, and an early-termination answer is
// too if OutputBounds on the advanced index returns the vector it returned
// before. Anything that makes a run read more — a second use of the index, a
// graph scan — must extend that comparison with it.
//
// # Scratch lifecycle
//
// Every mutable per-run array of the engine — pair status and counters, the
// match and finalization queues, the R phase's region, the feeder's order,
// the refinement tables, and both slabs: the one the interior relevant sets
// are carved from and the one the relevance sweeps carve their working sets
// from — lives in a recycled scratch (scratch.go: one kept for good, the
// others of a concurrent burst in a sync.Pool), so the engine owns no
// per-run sweep memory beyond each sweep's condensation. newEngine
// takes the scratch once the inputs are validated and every query node is
// known to have candidates; reset re-lengths each array and clears exactly
// the prefix the run will use; TopK returns it, after the Result is
// assembled, on every path out. Three rules keep that safe, and the hygiene
// tests hold the engine to them by overwriting every returned scratch with
// ones:
//
//   - Nothing carved from pooled memory may be reachable from a Result. A
//     Result holds its own Space, its own Matches/All, and Match.R sets that
//     were allocated one by one (engine.outSets): the serving layer caches
//     Results for as long as it likes while the scratch moves on to other
//     queries, possibly on other goroutines.
//   - PairHandles die with the run. A handle reads the engine's output sets,
//     never the scratch, so one kept too long is harmless — but it describes
//     a run that is over.
//   - No backing array of the scratch holds a pointer. The collector has
//     nothing to scan in the pool, a recycled scratch cannot keep another
//     run's results alive, and no state flows from one run to the next:
//     whatever a previous run left in the arrays is cleared or overwritten
//     before it is read.
//
// # The hook's frozen-state contract
//
// Options.Hook (the diversified heuristic TopKDH) observes a run from the
// inside. Begin is called once, before the first batch. Batch is called
// after each batch has been fed and propagated to quiescence — match events,
// unit refinements, finalizations and the relevance phase all done — and
// before the termination check. The engine does nothing while the hook
// runs: for the duration of one Batch call, Lower and R of every handle,
// whether it arrived in this call or an earlier one, are constants, which
// is what lets TopKDH memoize bounds and distances per call. Between calls
// the sets behind R grow in place and Lower grows with them. The slice
// passed to Batch is reused by the next call (copy the handles out, they
// are values); the sets are the engine's and must not be written.
package core
