package divtopk

import (
	"io"
	"sync"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// Graph is an immutable directed labeled data graph with optional node
// attributes. Build one with NewGraphBuilder, parse one with ReadGraph, or
// generate one with the New*Like generators.
//
// A Graph lazily builds and caches the descendant-label bound index the
// first time TopKDH (TopKDiversified's default) runs on it, so repeated
// queries amortize it the way the paper's precomputed index does. A bare
// Graph is safe for concurrent queries: the index is created once and fills
// per label under a lock, so cold concurrent queries merely serialize on
// index construction. Wrap the Graph in a Matcher — which warms the whole
// index up front — to serve concurrent queries without that contention.
type Graph struct {
	g          *graph.Graph
	boundsOnce sync.Once
	bounds     *core.BoundsCache
}

// boundsCache returns the lazily created per-graph bound index, creating it
// exactly once even under concurrent first queries.
func (g *Graph) boundsCache() *core.BoundsCache {
	g.boundsOnce.Do(func() { g.bounds = core.NewBoundsCache(g.g, true) })
	return g.bounds
}

// adoptBounds installs an already-built bound index into a facade Graph
// that has never been queried — the commit path, which advances the
// previous snapshot's index off to the side and hands the result to the new
// snapshot instead of letting it warm a cold cache from scratch. The index
// must cover g's underlying snapshot; adoption is a no-op if something
// already created the cache.
func (g *Graph) adoptBounds(bc *core.BoundsCache) {
	g.boundsOnce.Do(func() { g.bounds = bc })
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Label returns the label of node v.
func (g *Graph) Label(v int) string { return g.g.Label(graph.NodeID(v)) }

// Attr returns node v's attribute under key, rendered as a string
// (integers in decimal), and whether it exists.
func (g *Graph) Attr(v int, key string) (string, bool) {
	val, ok := g.g.Attr(graph.NodeID(v), key)
	if !ok {
		return "", false
	}
	return val.String(), true
}

// Attr is a typed node attribute; construct with Int or Str.
type Attr struct {
	key string
	val graph.Value
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{key, graph.IntValue(v)} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{key, graph.StrValue(v)} }

// GraphBuilder accumulates nodes and edges for a Graph.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder { return &GraphBuilder{b: graph.NewBuilder()} }

// AddNode appends a node and returns its ID (dense, starting at 0).
func (b *GraphBuilder) AddNode(label string, attrs ...Attr) int {
	m := make(map[string]graph.Value, len(attrs))
	for _, a := range attrs {
		m[a.key] = a.val
	}
	return int(b.b.AddNode(label, m))
}

// AddEdge appends the directed edge (u, v).
func (b *GraphBuilder) AddEdge(u, v int) error {
	return b.b.AddEdge(graph.NodeID(u), graph.NodeID(v))
}

// Build finalizes the graph; the builder must not be reused.
func (b *GraphBuilder) Build() *Graph { return &Graph{g: b.b.Build()} }

// Pattern is a validated pattern graph Q = (Vp, Ep, fv, uo) with a
// designated output node.
type Pattern struct {
	p *pattern.Pattern
}

// String renders the pattern compactly.
func (p *Pattern) String() string { return p.p.String() }

// IsDAG reports whether the pattern is acyclic.
func (p *Pattern) IsDAG() bool { return p.p.IsDAG() }

// NumNodes returns |Vp|.
func (p *Pattern) NumNodes() int { return p.p.NumNodes() }

// NumEdges returns |Ep|.
func (p *Pattern) NumEdges() int { return p.p.NumEdges() }

// Pred is a search-condition predicate on a node attribute; construct with
// Eq, Ne, Lt, Le, Gt, Ge or Contains.
type Pred struct {
	pr pattern.Predicate
}

// Eq builds attr = value (value: int64, int or string).
func Eq(attr string, value any) Pred { return Pred{pattern.AttrEq(attr, value)} }

// Ne builds attr != value.
func Ne(attr string, value any) Pred { return Pred{pattern.AttrNe(attr, value)} }

// Lt builds attr < value.
func Lt(attr string, value int64) Pred { return Pred{pattern.AttrLt(attr, value)} }

// Le builds attr <= value.
func Le(attr string, value int64) Pred { return Pred{pattern.AttrLe(attr, value)} }

// Gt builds attr > value.
func Gt(attr string, value int64) Pred { return Pred{pattern.AttrGt(attr, value)} }

// Ge builds attr >= value.
func Ge(attr string, value int64) Pred { return Pred{pattern.AttrGe(attr, value)} }

// Contains builds a substring predicate on a string attribute.
func Contains(attr, sub string) Pred { return Pred{pattern.AttrContains(attr, sub)} }

// PatternBuilder accumulates query nodes and edges for a Pattern.
type PatternBuilder struct {
	p      *pattern.Pattern
	outSet bool
}

// NewPatternBuilder returns an empty builder; the first added node is the
// output node unless Output is called.
func NewPatternBuilder() *PatternBuilder { return &PatternBuilder{p: pattern.New()} }

// AddNode appends a query node with a label and optional predicates.
func (b *PatternBuilder) AddNode(label string, preds ...Pred) int {
	ps := make([]pattern.Predicate, len(preds))
	for i, pr := range preds {
		ps[i] = pr.pr
	}
	return b.p.AddNode(label, ps...)
}

// AddEdge appends the query edge (u, v).
func (b *PatternBuilder) AddEdge(u, v int) error { return b.p.AddEdge(u, v) }

// Output designates u as the output node (marked '*' in the paper).
func (b *PatternBuilder) Output(u int) error {
	b.outSet = true
	return b.p.SetOutput(u)
}

// Build validates and returns the pattern.
func (b *PatternBuilder) Build() (*Pattern, error) {
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return &Pattern{p: b.p}, nil
}

// ReadGraph parses a graph in the text format of cmd/graphgen.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g.g) }

// ReadPattern parses a pattern in the text format (output node marked '*').
func ReadPattern(r io.Reader) (*Pattern, error) {
	p, err := pattern.Read(r)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: p}, nil
}

// WritePattern serializes p in the text format.
func WritePattern(w io.Writer, p *Pattern) error { return pattern.Write(w, p.p) }

// Match is one ranked match of the pattern's output node.
type Match struct {
	// Node is the matched data node.
	Node int
	// Label is its label.
	Label string
	// Relevance is the known lower bound on δr (exact when Exact is true).
	Relevance int
	// Upper is the upper bound on δr at termination.
	Upper int
	// Exact reports whether Relevance is exactly δr.
	Exact bool
	// RelevantSet lists the data nodes of the (possibly partial) relevant
	// set backing Relevance.
	RelevantSet []int
}

// Stats summarizes the work a query did; Examined/|Mu| is the paper's MR.
type Stats struct {
	// Candidates is the number of candidate nodes of the output node.
	Candidates int
	// Examined is the number of output matches inspected before stopping.
	Examined int
	// Batches is the number of propagation rounds.
	Batches int
	// EarlyTerminated reports whether the run stopped before exhausting the
	// candidate space.
	EarlyTerminated bool
}

// Result is a top-k answer.
type Result struct {
	// Matches holds up to k matches sorted by descending relevance.
	Matches []Match
	// All holds every match of the output node, Mu(Q,G,uo), sorted the
	// same way (Matches is its prefix): TopK evaluates the find-all Match
	// and never terminates early. To keep large result pools cheap,
	// RelevantSet is expanded only for the Matches prefix; entries beyond
	// it carry their relevance but no set.
	All []Match
	// GlobalMatch reports whether G matches Q at all.
	GlobalMatch bool
	// Stats summarizes the work done: Match's, so Examined is |Mu| and
	// EarlyTerminated is false.
	Stats Stats
}

// DiversifiedResult is a diversified top-k answer.
type DiversifiedResult struct {
	// Matches is the selected k-set.
	Matches []Match
	// F is the diversification objective value of Matches.
	F float64
	// GlobalMatch reports whether G matches Q at all.
	GlobalMatch bool
	// Stats summarizes the work done.
	Stats Stats
}

// Matches computes Mu(Q,G,uo): all data nodes matching the output node
// under graph simulation, in ascending node order (empty when G does not
// match Q).
func (g *Graph) Matches(p *Pattern) []int {
	res := simulation.Compute(g.g, p.p)
	ms := res.MatchesOf(p.p.Output())
	out := make([]int, len(ms))
	for i, v := range ms {
		out[i] = int(v)
	}
	return out
}

// TopK returns the k most relevant matches of the output node of p in g,
// ties broken by ascending node: the find-all Match (§4) cut at k, exact and
// canonical (see the package doc for why not the §4.1 engine). WithBaseline
// is accepted and ignored.
func TopK(g *Graph, p *Pattern, k int, opts ...Option) (*Result, error) {
	a, err := evaluate(g, p, newQuery(false, k, 0, nil, opts), nil)
	if err != nil {
		return nil, err
	}
	return a.val.(*Result), nil
}

// TopKDiversified returns a k-set of matches balancing relevance and
// diversity under the bi-criteria function F with parameter lambda ∈ [0,1]
// (0 = pure relevance, 1 = pure diversity). The default algorithm is the
// early-termination heuristic TopKDH; WithApproximation selects the
// 2-approximation TopKDiv instead.
func TopKDiversified(g *Graph, p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, error) {
	a, err := evaluate(g, p, newQuery(true, k, lambda, nil, opts), nil)
	if err != nil {
		return nil, err
	}
	return a.val.(*DiversifiedResult), nil
}

// answer is what evaluate returns: the facade value (a *Result for top-k, a
// *DiversifiedResult for the diversified kinds) and, for the find-all
// kinds, the core-level match pool behind it, which the commit-time advance
// pass hands the other find-all shapes riding the same state as pre.Pool.
type answer struct {
	val  any
	pool *core.Result
}

// evaluate is the one evaluation path: every query route runs the paper's
// pipeline (candidates → product → fixpoint → relevance/bounds → select)
// through here, and the routes differ only in where the stage inputs come
// from. pre == nil computes everything cold (package-level calls, uncached
// sessions). A non-nil pre supplies the candidate index, product CSR and
// settled fixpoint of a maintained simulation.IncState for exactly (g, p) —
// built at admission or carried across a commit by IncCompute; it only
// spares rebuilding them, the answer is byte-identical; the advance pass
// also hands back, as pre.Pool, the find-all pool the first such query on a
// state computed, so the others riding it skip the relevance pass.
func evaluate(g *Graph, p *Pattern, q query, pre *core.PrebuiltEval) (answer, error) {
	// TopKDH and TopKDiv validate λ and k themselves, but TopKDiv only after
	// its find-all half ran: check first so no route pays for, or reports an
	// error from, an evaluation whose selection step cannot run.
	if err := q.check(); err != nil {
		return answer{}, err
	}
	eng := core.Options{Prebuilt: pre}
	if q.kind.full() {
		pool, err := core.MatchBaselineOpts(g.g, p.p, q.k, true, eng)
		if err != nil {
			return answer{}, err
		}
		if q.kind == kindMatch {
			return answer{val: convertResult(g, pool), pool: pool}, nil
		}
		dres, err := diversify.TopKDivFromBase(pool, q.k, q.lambda, eng)
		if err != nil {
			return answer{}, err
		}
		return answer{val: convertDiversified(g, dres), pool: pool}, nil
	}
	// TopKDH reads its initial upper bounds from the graph's descendant-label
	// index (the paper's design). Without it the engine would compute the
	// per-query tight bounds instead.
	eng.Cache = g.boundsCache()
	dres, err := diversify.TopKDH(g.g, p.p, q.k, q.lambda, eng)
	if err != nil {
		return answer{}, err
	}
	return answer{val: convertDiversified(g, dres)}, nil
}

func convertDiversified(g *Graph, res *diversify.Result) *DiversifiedResult {
	out := &DiversifiedResult{
		F:           res.F,
		GlobalMatch: res.GlobalMatch,
		Stats:       convertStats(res.Stats),
	}
	for _, m := range res.Matches {
		out.Matches = append(out.Matches, convertMatch(g, m))
	}
	return out
}

func convertResult(g *Graph, res *core.Result) *Result {
	out := &Result{GlobalMatch: res.GlobalMatch, Stats: convertStats(res.Stats)}
	top := len(res.Matches)
	for i, m := range res.All {
		if i < top {
			// Only the returned top-k expand their relevant-set bitsets to
			// node slices; doing it for the whole pool would make every
			// query pay O(|All|·|space|) for data most callers never read.
			out.All = append(out.All, convertMatchWithSpace(g, m, res.Space))
		} else {
			out.All = append(out.All, convertMatch(g, m))
		}
	}
	out.Matches = out.All[:top]
	return out
}

func convertStats(s core.Stats) Stats {
	return Stats{
		Candidates:      s.CandidatesOfOutput,
		Examined:        s.MatchesFound,
		Batches:         s.Batches,
		EarlyTerminated: s.EarlyTerminated,
	}
}

func convertMatch(g *Graph, m core.Match) Match {
	return Match{
		Node:      int(m.Node),
		Label:     g.g.Label(m.Node),
		Relevance: m.Relevance,
		Upper:     m.Upper,
		Exact:     m.Exact,
	}
}

func convertMatchWithSpace(g *Graph, m core.Match, space *simulation.RelSpace) Match {
	out := convertMatch(g, m)
	if m.R != nil && space != nil {
		for _, v := range space.NodesOf(m.R) {
			out.RelevantSet = append(out.RelevantSet, int(v))
		}
	}
	return out
}

// Unwrap exposes the internal graph to sibling packages inside this module
// (the serving layer's durability adapter, the tracked benchmark); external
// users have no use for it.
func (g *Graph) Unwrap() any { return g.g }

// UnwrapPattern exposes the internal pattern to sibling packages inside
// this module.
func (p *Pattern) UnwrapPattern() any { return p.p }
