package divtopk

import (
	"divtopk/internal/core"
	"divtopk/internal/ranking"
)

// Option tunes TopK and TopKDiversified.
type Option func(*options)

type options struct {
	engine       core.Options
	baseline     bool
	approx       bool
	cacheEntries int
}

// buildOptions applies the option lists in order: session defaults first,
// per-call options on top of them.
func buildOptions(layers ...[]Option) options {
	var o options
	// The facade defaults to the amortized per-graph label-count index (the
	// paper's design); WithTightBounds restores the per-query tight bound.
	o.engine.Bounds = core.BoundLabelCount
	for _, opts := range layers {
		for _, f := range opts {
			f(&o)
		}
	}
	return o
}

// WithRandomSelection switches the engine to the paper's non-optimized leaf
// selection (the TopKnopt/TopKDAGnopt baselines): unvisited leaf candidates
// are fed in seeded random order instead of the covering heuristic.
func WithRandomSelection(seed int64) Option {
	return func(o *options) {
		o.engine.Strategy = core.StrategyRandom
		o.engine.Seed = seed
	}
}

// WithBatches sets the number of leaf feeding batches (default 16): more
// batches mean finer-grained early-termination checks at slightly more
// bookkeeping.
func WithBatches(n int) Option {
	return func(o *options) { o.engine.NumBatches = n }
}

// WithLooseBounds replaces the default cached label-count upper-bound index
// by the cheapest overcounting variant (see the bounds ablation of
// cmd/experiments, internal/bench.AblationBounds).
func WithLooseBounds() Option {
	return func(o *options) { o.engine.Bounds = core.BoundCheap }
}

// WithTightBounds computes the per-query candidate-product upper bounds —
// the tightest index, reproducing the h values of the paper's Examples 7-8
// exactly — instead of the amortized per-graph label-count index. Tighter
// bounds terminate earlier but cost a product traversal per query.
func WithTightBounds() Option {
	return func(o *options) { o.engine.Bounds = core.BoundTight }
}

// WithBaseline evaluates the query with the find-all Match algorithm
// instead of the early-termination engine (the paper's baseline; exact
// relevances, no early termination).
func WithBaseline() Option {
	return func(o *options) { o.baseline = true }
}

// WithApproximation makes TopKDiversified use the 2-approximation TopKDiv
// (evaluates the full match set, guarantees F(S) ≥ F(S*)/2) instead of the
// early-termination heuristic TopKDH.
func WithApproximation() Option {
	return func(o *options) { o.approx = true }
}

// WithCache equips a Matcher with a result cache of the given capacity (in
// entries): an LRU keyed by a canonical fingerprint of (graph snapshot
// version, pattern, k, λ, algorithm options) with singleflight admission,
// so N concurrent identical queries cost one evaluation and repeated
// queries cost none. Because every engine is deterministic, a cached result
// is identical to a fresh evaluation; callers share the stored Result and
// must treat it as read-only. The snapshot version in the key is what makes
// caching sound for dynamic graphs: after Matcher.Update, entries cached
// against the previous snapshot are unreachable (they age out of the LRU
// instead of being scanned). The option is consulted by NewMatcher only —
// the package-level TopK/TopKDiversified never cache — and entries <= 0
// disables caching.
func WithCache(entries int) Option {
	return func(o *options) { o.cacheEntries = entries }
}

// Parallelism bounds the number of worker goroutines a query (and a
// Matcher's batch APIs) may use. n <= 0 — the default — means
// runtime.NumCPU(); 1 runs fully sequentially, reproducing the
// single-threaded engine bit-for-bit. Any value returns identical results:
// the parallel sections (candidate computation, the diversified greedy
// scans, batch fan-out) are deterministic by construction, so this knob
// trades wall-clock time only.
func Parallelism(n int) Option {
	return func(o *options) { o.engine.Parallelism = n }
}

// queryKind names the paper's four algorithms: two families (find-all and
// early termination) for each of the two problems (top-k and diversified
// top-k).
type queryKind uint8

const (
	kindTopK    queryKind = iota // early-termination engine (§4.1)
	kindMatch                    // find-all Match (§4): WithBaseline
	kindTopKDH                   // early-termination heuristic (§5.2)
	kindTopKDiv                  // find-all 2-approximation (§5.1): WithApproximation
)

// full reports the find-all family: a pure function of candidates, product
// and fixpoint, with no feeding strategy or bounds to steer.
func (k queryKind) full() bool { return k == kindMatch || k == kindTopKDiv }

func (k queryKind) diversified() bool { return k == kindTopKDH || k == kindTopKDiv }

// query is one fully resolved question: which algorithm, k, λ (0 for the
// top-k kinds) and the engine options. Every query route — package-level
// call, session, cache loader, commit-time advance — builds one and hands it
// to evaluate; queryKey derives the cache identity from the same value.
type query struct {
	kind   queryKind
	k      int
	lambda float64
	eng    core.Options
}

// newQuery resolves an entry point (diversified or not) and its options (a
// session's defaults, then the call's). Each entry point consults only its
// own algorithm flag: TopK ignores WithApproximation and TopKDiversified
// ignores WithBaseline, so a session default for one problem neither splits
// nor collides the other's cache entries.
func newQuery(diversified bool, k int, lambda float64, base, opts []Option) query {
	o := buildOptions(base, opts)
	q := query{kind: kindTopK, k: k, lambda: lambda, eng: o.engine}
	switch {
	case diversified && o.approx:
		q.kind = kindTopKDiv
	case diversified:
		q.kind = kindTopKDH
	case o.baseline:
		q.kind = kindMatch
	}
	return q
}

// check rejects a λ or k the diversified algorithms cannot run with — before
// any evaluation work and before a cache key is derived, so that a NaN
// surfaces as the structured ErrLambdaRange and not as a poisoned
// fingerprint.
func (q query) check() error {
	if !q.kind.diversified() {
		return nil
	}
	return ranking.DiversifyParams{Lambda: q.lambda, K: q.k}.Validate()
}
