package core

import (
	"sync"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// BoundsCache is the paper's descendant-label index (§4.1: "for each node v
// in G, the index records the numbers of its descendants with a same
// label"): per-label distinct-descendant counts, computed once per graph
// and shared across queries, from which each query's initial upper bounds
// h(uo,v) are aggregated in O(|can(uo)|·|desc labels|). Build one per graph
// with NewBoundsCache and pass it via Options.Cache to share the index across
// queries. What that buys is measured, not assumed: on the tracked
// benchmark's cold_paper inputs the engine behind an amortized index is
// slower per query than the find-all baseline (in process, 512 queries on
// one CPU: TopKDH 3.1 ms against Match 1.8 ms), and on those inputs runs with
// the index and runs with no bound stop after the same batches (ROADMAP
// item 1) — its h never terminated a run earlier.
//
// A BoundsCache is safe for concurrent use: each label's counts are
// computed at most once (concurrent requesters of a cold label wait for the
// in-flight computation instead of duplicating or racing on it), and the
// traversal itself runs outside the lock, so queries over warmed labels
// are never blocked by a cold fill. Warm precomputes all labels up front
// to eliminate cold-start waits entirely. All fills share the snapshot's
// cached condensation (Graph.Condensation), so the SCC work is paid once
// per graph no matter how many labels fill or how lazily.
//
// A BoundsCache is versioned derived state: it indexes exactly one graph
// snapshot, and Advance derives the next snapshot's cache from it by
// recomputing only what a delta's affected area can have changed — see
// advance.go. Caches are immutable across snapshots the way graphs are:
// Advance returns a new cache and leaves this one serving the old snapshot.
type BoundsCache struct {
	g    *graph.Graph
	mode graph.DescMode

	mu     sync.RWMutex
	counts map[graph.LabelID][]int32
	flight map[graph.LabelID]chan struct{}
}

// NewBoundsCache creates an empty cache over g. exact selects exact
// distinct-descendant counting (graph.DescExact, the default index) versus
// the cheaper overcounting DP (used by BoundCheap).
func NewBoundsCache(g *graph.Graph, exact bool) *BoundsCache {
	mode := graph.DescExact
	if !exact {
		mode = graph.DescLoose
	}
	return &BoundsCache{
		g:      g,
		mode:   mode,
		counts: make(map[graph.LabelID][]int32),
		flight: make(map[graph.LabelID]chan struct{}),
	}
}

// Warm precomputes the counts for the given labels (all graph labels when
// nil), making subsequent use contention-free. Each label fills through the
// same flight-coordinated path lazy queries use, so the traversals run
// outside the cache lock: readers of already-warm labels are never blocked
// behind a warm in progress (they used to be — Warm held the write lock for
// the whole computation), and concurrent Warms split the work instead of
// duplicating it. All label fills share the snapshot's cached condensation,
// so warming n labels pays the SCC computation once, not n times.
func (c *BoundsCache) Warm(labels []string) {
	if labels == nil {
		labels = c.g.Dict().Names()
	}
	for _, name := range labels {
		if id, ok := c.g.Dict().ID(name); ok {
			c.countsFor(id)
		}
	}
}

// Graph returns the snapshot this cache indexes.
func (c *BoundsCache) Graph() *graph.Graph { return c.g }

// descendantLabelCounts is countsFor's fill, a variable so that a test can
// park it and check that countsFor runs it without holding c.mu.
var descendantLabelCounts = graph.DescendantLabelCounts

func (c *BoundsCache) countsFor(l graph.LabelID) []int32 {
	for {
		c.mu.RLock()
		cs, ok := c.counts[l]
		c.mu.RUnlock()
		if ok {
			return cs
		}
		// Cold label: either claim the computation or wait for whoever did.
		// The traversal runs outside the lock, so queries on warm labels
		// proceed while a cold fill is in flight.
		c.mu.Lock()
		if cs, ok := c.counts[l]; ok {
			c.mu.Unlock()
			return cs
		}
		if ch, ok := c.flight[l]; ok {
			c.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		c.flight[l] = ch
		c.mu.Unlock()

		// Settle the flight even if the traversal panics: waiters wake up
		// (and, finding neither counts nor flight, recompute), instead of
		// blocking forever on a channel nobody will close.
		settled := false
		defer func() {
			if settled {
				return
			}
			c.mu.Lock()
			delete(c.flight, l)
			c.mu.Unlock()
			close(ch)
		}()

		cs = descendantLabelCounts(c.g, []graph.LabelID{l}, c.mode)[0]
		settled = true

		c.mu.Lock()
		c.counts[l] = cs
		delete(c.flight, l)
		c.mu.Unlock()
		close(ch)
		return cs
	}
}

// computeUpperBounds initializes h(uo,v) for every candidate of the output
// node (§4.1's "v.h = Cu(v)") into out, which has one entry per candidate in
// pair order. Every mode is sound: h(uo,v) ≥ δr(uo,v).
//
//   - With a BoundsCache (the amortized per-graph index): h = Σ over the
//     output node's descendant labels of the per-label descendant counts.
//   - BoundTight (per query): reachability over the candidate product graph
//     (shared with the engine as the materialized CSR), the semantics that
//     reproduces the h values of Examples 7-8 exactly; tightest, but costs
//     a product traversal per query.
//   - BoundLabelCount / BoundCheap (per query): the index aggregation
//     without a cache.
func computeUpperBounds(out []int32, prod *simulation.Product, an *pattern.Analysis,
	space *simulation.RelSpace, opts Options) {

	g, p, ci := prod.G, prod.P, prod.CI
	mode, cache := opts.Bounds, opts.Cache
	uo := p.Output()

	if cache == nil && mode == BoundTight {
		rel := simulation.ComputeRelevant(prod, space, nil, uo, false)
		copy(out, rel.Sizes)
		return
	}

	if cache == nil {
		cache = NewBoundsCache(g, mode != BoundCheap)
	}
	cache.OutputBounds(out, ci.Lists[uo], an.DescLabels)
}

// OutputBounds fills out — one entry per node of cands, the output node's
// candidate list — with the index's initial upper bounds: h(uo,v) = Σ over
// descLabels (pattern.Analysis.DescLabels, the labels of the query nodes the
// output node reaches) of v's distinct-descendant count under that label,
// clamped to int32. This vector is everything an early-termination run reads
// from the index: computeUpperBounds calls it and nothing else touches the
// count rows, which is what lets the matcher's commit pass decide from the
// vector alone whether a cached answer survives a delta (see the package
// documentation, "What an answer depends on"). Cost O(|cands|·|descLabels|)
// over warm labels; a label the cache has not seen fills on the way.
func (c *BoundsCache) OutputBounds(out []int32, cands []graph.NodeID, descLabels []string) {
	var labelCounts [][]int32
	for _, name := range descLabels {
		if id, ok := c.g.Dict().ID(name); ok {
			labelCounts = append(labelCounts, c.countsFor(id))
		}
	}
	for i, v := range cands {
		total := int64(0)
		for _, cs := range labelCounts {
			total += int64(cs[v])
		}
		if total > int64(^uint32(0)>>1) {
			total = int64(^uint32(0) >> 1)
		}
		out[i] = int32(total)
	}
}
