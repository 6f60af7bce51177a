package divtopk

import "divtopk/internal/ranking"

// Option tunes TopK and TopKDiversified.
type Option func(*options)

type options struct {
	approx       bool
	cacheEntries int
}

// buildOptions applies the option lists in order: session defaults first,
// per-call options on top of them.
func buildOptions(layers ...[]Option) options {
	var o options
	for _, opts := range layers {
		for _, f := range opts {
			f(&o)
		}
	}
	return o
}

// WithBaseline is ignored: TopK always runs the find-all Match (§4), the
// paper's baseline. It stays until the tracked benchmark, which passes it,
// stops doing so.
func WithBaseline() Option {
	return func(*options) {}
}

// WithApproximation makes TopKDiversified use the 2-approximation TopKDiv
// (evaluates the full match set, guarantees F(S) ≥ F(S*)/2) instead of the
// early-termination heuristic TopKDH.
func WithApproximation() Option {
	return func(o *options) { o.approx = true }
}

// WithCache equips a Matcher with a result cache of the given capacity (in
// entries): an LRU keyed by a canonical fingerprint of (graph snapshot
// version, pattern, algorithm, k, λ) with singleflight admission, so N
// concurrent identical queries cost one evaluation and repeated queries cost
// none. Because every engine is deterministic, a cached result is identical
// to a fresh evaluation; callers share the stored Result and must treat it as
// read-only. The snapshot version in the key is what makes caching sound for
// dynamic graphs: after a commit, entries cached against the previous
// snapshot are unreachable (they age out of the LRU instead of being
// scanned). The option is consulted by NewMatcher only — the package-level
// TopK/TopKDiversified never cache — and entries <= 0 disables caching.
func WithCache(entries int) Option {
	return func(o *options) { o.cacheEntries = entries }
}

// Parallelism is ignored: every query and commit runs on its caller's
// goroutine. It stays until the tracked benchmark, which passes it, stops
// doing so.
func Parallelism(n int) Option {
	return func(*options) {}
}

// queryKind names the algorithms behind the two entry points: top-k has
// one, the find-all Match cut at k (the package doc says why), and
// diversified top-k keeps both of the paper's families.
type queryKind uint8

const (
	kindMatch   queryKind = iota // find-all Match (§4), cut at k
	kindTopKDH                   // early-termination heuristic (§5.2)
	kindTopKDiv                  // find-all 2-approximation (§5.1): WithApproximation
)

// full reports the find-all family: a pure function of candidates, product
// and fixpoint, with no bound index to read.
func (k queryKind) full() bool { return k != kindTopKDH }

func (k queryKind) diversified() bool { return k != kindMatch }

// query is one fully resolved question: which algorithm, k and λ (0 for
// top-k). Every query route — package-level call,
// session, cache loader, commit-time advance — builds one and hands it to
// evaluate; queryKey derives the cache identity from the same value.
type query struct {
	kind   queryKind
	k      int
	lambda float64
}

// newQuery resolves an entry point (diversified or not) and its options (a
// session's defaults, then the call's). Only TopKDiversified has an
// algorithm flag, WithApproximation; TopK ignores it, so a session default
// neither splits nor collides top-k cache entries.
func newQuery(diversified bool, k int, lambda float64, base, opts []Option) query {
	q := query{kind: kindMatch, k: k, lambda: lambda}
	if diversified {
		q.kind = kindTopKDH
		if buildOptions(base, opts).approx {
			q.kind = kindTopKDiv
		}
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
