package divtopk

import "divtopk/internal/core"

// Option tunes TopK and TopKDiversified.
type Option func(*options)

type options struct {
	engine       core.Options
	baseline     bool
	approx       bool
	cacheEntries int
	indexRatio   float64
	advanceRatio float64
}

func buildOptions(opts []Option) options {
	var o options
	// The facade defaults to the amortized per-graph label-count index (the
	// paper's design); WithTightBounds restores the per-query tight bound.
	o.engine.Bounds = core.BoundLabelCount
	for _, f := range opts {
		f(&o)
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

// WithIndexRebuildRatio tunes the adaptive fallback of the incremental
// bound-index maintenance a Matcher performs on Update: the index advances
// with the graph by recomputing, per label, only the frontier rows the
// delta's touch points actually reach (the per-node frontier diff of
// internal/graph.ComputeFrontier — membership changes, ancestor closures
// of successor-set changes, and cyclicity flips, masked per label), and
// falls back to a full rebuild of the warmed labels once the recomputed
// cells' share of the whole index exceeds r (default 0.25 — past a
// quarter of the index, seeding the partial passes costs as much as
// starting over). r = 1 never falls back; a tiny positive r effectively
// always rebuilds (useful to A/B the two paths). Results are identical
// either way — the fallback trades wall-clock time only. The option is
// consulted by NewMatcher; the package-level functions never advance an
// index.
func WithIndexRebuildRatio(r float64) Option {
	return func(o *options) { o.indexRatio = r }
}

// WithCacheAdvanceRatio tunes the adaptive fallback of the commit-time
// result-cache advance pass a Matcher with WithCache performs on Update:
// warm entries advance with the graph via incremental simulation
// maintenance, and fall back to eviction (the next query re-evaluates cold)
// once the delta's affected share of the product graph exceeds r (default
// 0.25 — past a quarter of the product, advancing costs as much as
// re-evaluating). r >= 1 never falls back (forced advance); a tiny positive
// r effectively always evicts (useful to A/B the two paths). Results are
// identical either way — an advanced entry is byte-identical to a cold
// evaluation at the new version; the knob trades commit-time work against
// first-post-commit-query latency only. Consulted by NewMatcher; without
// WithCache there is nothing to advance.
func WithCacheAdvanceRatio(r float64) Option {
	return func(o *options) { o.advanceRatio = r }
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
