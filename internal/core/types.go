package core

import (
	"errors"
	"fmt"

	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/simulation"
)

// Strategy selects how the engine picks the next batch of unvisited leaf
// candidates (the set Sc of §4.1).
type Strategy int

const (
	// StrategyCovering is the paper's optimized heuristic: prefer leaf
	// candidates that are children of candidates of rank-1 query nodes (most
	// covering parents first), so productive matches surface early. This is
	// the strategy of the paper's TopK and TopKDAG.
	StrategyCovering Strategy = iota
	// StrategyRandom picks unvisited leaf candidates in random order; this
	// is the "nopt" baseline of the paper's Exp-1/Exp-2.
	StrategyRandom
)

// String names the strategy.
func (s Strategy) String() string {
	if s == StrategyRandom {
		return "random"
	}
	return "covering"
}

// BoundMode selects how the initial upper bounds h(uo,v) are computed.
type BoundMode int

const (
	// BoundTight counts reachability over the candidate product graph —
	// the semantics that reproduces the h values of the paper's Examples 7
	// and 8.
	BoundTight BoundMode = iota
	// BoundLabelCount uses exact label-filtered descendant counts in G:
	// cheaper to compute, looser (it ignores the pattern's path structure).
	BoundLabelCount
	// BoundCheap uses the O(|G|)-per-label overcounting descendant sum:
	// cheapest, loosest. Kept for the bounds ablation benchmark.
	BoundCheap
)

// String names the bound mode.
func (b BoundMode) String() string {
	switch b {
	case BoundLabelCount:
		return "label-count"
	case BoundCheap:
		return "cheap"
	default:
		return "tight"
	}
}

// Options tune the engine. The zero value is the paper's default
// configuration (covering strategy, tight bounds, 16 feeding batches).
type Options struct {
	// Strategy picks the leaf-selection heuristic (default covering).
	Strategy Strategy
	// Seed drives StrategyRandom's shuffle (ignored by covering).
	Seed int64
	// NumBatches is the number of leaf feeding batches (default 16). More
	// batches mean finer-grained termination checks.
	NumBatches int
	// Bounds picks the upper-bound initialization (default tight). Ignored
	// when Cache is set.
	Bounds BoundMode
	// Cache, if non-nil, supplies the per-graph descendant-label index and
	// switches the upper bounds to the amortized aggregation (the paper's
	// index design; see BoundsCache).
	Cache *BoundsCache
	// UpperOverride, if non-nil, replaces the initial upper bound of the
	// listed output candidates. Intended for bound-quality research (e.g.
	// the oracle row of the bounds ablation): overriding with exact δr
	// values isolates how much of the examined-matches ratio is due to
	// bound looseness versus feeding dynamics. Values must still satisfy
	// h ≥ δr or the result set may be wrong.
	UpperOverride map[graph.NodeID]int32
	// Hook, if non-nil, observes each batch; used by the diversified
	// heuristic TopKDH to maintain its swap set incrementally.
	Hook Hook
	// Prebuilt, if non-nil, supplies evaluation state already settled for
	// this exact (graph, pattern) snapshot — the candidate index and,
	// optionally, the product CSR and simulation fixpoint — so the run skips
	// rebuilding them. The matcher's warm result cache populates it from
	// delta-advanced IncStates; results are byte-identical by construction,
	// which is why Prebuilt is excluded from cache keys. Supplied state is
	// shared read-only and never mutated.
	Prebuilt *PrebuiltEval
}

// PrebuiltEval carries settled evaluation state of one (graph, pattern)
// snapshot for Options.Prebuilt. CI is required when the struct is supplied;
// Prod and Sim are optional refinements: the find-all path consumes both,
// the engine CI and Prod (it re-runs propagation on its own counters). Pool,
// the last stage, is a find-all result already computed from exactly this
// state with keepSets (MatchBaselineOpts' own return value): the find-all
// path then only cuts the top-k prefix for the call's k, which is how several
// find-all queries riding one state share one relevance pass. Every field
// must have been computed against the exact graph and pattern of the call —
// the caller owns that contract.
type PrebuiltEval struct {
	CI   *simulation.CandidateIndex
	Prod *simulation.Product
	Sim  *simulation.Result
	Pool *Result
}

func (o Options) numBatches() int {
	if o.NumBatches <= 0 {
		return 16
	}
	return o.NumBatches
}

// Match is one ranked match of the output node.
type Match struct {
	// Node is the matched data node.
	Node graph.NodeID
	// Relevance is the known lower bound on δr(uo, Node); it equals the
	// exact δr when Exact is true (always true for finished runs of the
	// baseline, true for early-terminated candidates whose subtree
	// finalized).
	Relevance int
	// Upper is the upper bound h at termination time.
	Upper int
	// Exact reports whether Relevance is exactly δr.
	Exact bool
	// R is the (possibly partial) relevant set over Result.Space; nil when
	// the caller asked to drop sets.
	R *bitset.Set
}

// Stats reports the work an algorithm did; the harness derives the paper's
// MR metric (matches of uo inspected / |Mu|) from MatchesFound.
type Stats struct {
	// CandidatesOfOutput is |can(uo)|.
	CandidatesOfOutput int
	// MatchesFound is the number of matches of uo discovered before
	// termination — the |M^t_u| numerator of the paper's match ratio MR.
	MatchesFound int
	// Batches is the number of leaf batches fed.
	Batches int
	// EarlyTerminated reports whether Proposition 3 fired before all leaf
	// candidates were fed (false for the baseline and exhausted runs).
	EarlyTerminated bool
	// PairsTotal is the number of candidate pairs considered.
	PairsTotal int
}

// Result is the outcome of a top-k computation.
type Result struct {
	// Matches holds up to k matches, sorted by descending Relevance (node
	// ID ascending on ties).
	Matches []Match
	// All holds every discovered match of uo (superset of Matches), sorted
	// the same way. The diversified algorithms re-rank this pool.
	All []Match
	// Space maps relevant-set bitsets back to data nodes.
	Space *simulation.RelSpace
	// Cuo is the normalization constant of §3.3.
	Cuo int
	// GlobalMatch reports whether G matches Q (every query node matched).
	// When false, Matches and All are empty per the paper's semantics.
	GlobalMatch bool
	// Stats describes the work done.
	Stats Stats
}

// Hook observes engine batches; see Options.Hook and the frozen-state
// contract in the package documentation.
type Hook interface {
	// Begin is invoked once before the first batch with the normalization
	// constant C_uo of §3.3 (the diversified heuristic needs it to evaluate
	// F'' mid-run).
	Begin(cuo int)
	// Batch is invoked after each propagation batch with the newly matched
	// output-node candidates, in pair order. The engine is idle during the
	// call, so every handle's Lower and R — old handles included — are
	// constant until it returns. The slice is reused by the next call;
	// handles are values and may be copied out, but not kept past the run.
	Batch(newMatches []PairHandle)
}

// PairHandle is a live view of one matched output candidate during a run.
type PairHandle struct {
	e    *engine
	pair int32
}

// Node returns the matched data node.
func (h PairHandle) Node() graph.NodeID { return h.e.ci.V[h.pair] }

// Lower returns the current lower bound l (the size of the partial relevant
// set).
func (h PairHandle) Lower() int { return h.e.lowerOf(h.pair) }

// R returns the current (partial) relevant set. The set is live engine
// state: callers must treat it as read-only.
func (h PairHandle) R() *bitset.Set { return h.e.outSets[h.pair-h.e.uoLo] }

// ErrBadK is returned when k < 1.
var ErrBadK = errors.New("core: k must be >= 1")

func validateInputs(g *graph.Graph, k int) error {
	if k < 1 {
		return ErrBadK
	}
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	return nil
}
