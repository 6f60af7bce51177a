package simulation

import (
	"slices"

	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// The product graph has one node per alive candidate pair (u,v) and an edge
// (u,v) → (u',v') whenever (u,u') ∈ Ep, (v,v') ∈ E, and both pairs are
// alive. The relevant set R(u,v) of §3.1 is exactly the set of *data nodes*
// of the pairs reachable from (u,v) by a non-empty path in the product graph
// restricted to M(Q,G) — which also makes precise the paper's observation
// (Example 8) that a match on a product cycle contains itself in its own
// relevant set.
//
// Run over the *candidate* product graph (alive = all candidates) the same
// reachability yields R̂(u,v) ⊇ R(u,v), whose cardinality is the tight upper
// bound h(u,v) that reproduces the h values of the paper's Examples 7 and 8
// (see internal/core/bounds.go).

// RelevantResult carries relevant sets (or just their sizes) for the
// candidates of one root query node, typically the output node uo.
type RelevantResult struct {
	Space *RelSpace
	// Sizes[i] = |R(root, Lists[root][i])| for alive pairs, -1 otherwise.
	Sizes []int32
	// Sets[i] is the relevant set over Space, nil unless keepSets was set
	// (or the pair is dead).
	Sets []*bitset.Set
}

// ComputeRelevant computes the relevant sets of every alive candidate of
// root over a materialized product CSR. alive selects the pair universe
// (nil = all candidates = the R̂ upper bound; Result.InSim = the paper's R
// over M(Q,G)). keepSets retains each root pair's bitset; with
// keepSets=false only the sizes survive.
//
// Only the region the root reaches can enter a relevant set, so the kernel
// never looks past it: a DFS from the alive root pairs over the alive product
// collects the reached pairs, numbers them densely in ascending pair order,
// and the SCC condensation is built over those pairs alone. Its cost and its
// allocation follow the reached region (and the width of Space), not the
// product's pair count. SCC indices are a reverse topological order, so one
// sequential sweep in index order computes every component after all of its
// successors. Interior bitsets come from a bitset.Arena and return to it as
// soon as every predecessor has consumed them, keeping both peak memory and
// allocator traffic proportional to the frontier of the condensed product
// DAG instead of its total size.
func ComputeRelevant(prod *Product, space *RelSpace, alive []bool, root int, keepSets bool) *RelevantResult {
	ci := prod.CI
	lo, hi := ci.PairRange(root)
	res := &RelevantResult{
		Space: space,
		Sizes: make([]int32, hi-lo),
		Sets:  make([]*bitset.Set, hi-lo),
	}
	for i := range res.Sizes {
		res.Sizes[i] = -1
	}
	isAlive := func(q int32) bool { return alive == nil || alive[q] }

	// The reached region: pairs lists it, local maps a pair to its index in
	// pairs (a map, not a per-pair array, so that pairs the root cannot reach
	// cost nothing). Every reached pair is alive and every alive successor of
	// one is reached, so the filtered CSR below stays inside the region.
	local := make(map[int32]int32)
	var pairs, stack []int32
	nEdges := 0
	reach := func(q int32) {
		if _, ok := local[q]; !ok {
			local[q] = 0
			pairs = append(pairs, q)
			stack = append(stack, q)
		}
	}
	for q := lo; q < hi; q++ {
		if isAlive(q) {
			reach(q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range prod.Succs(q) {
			if isAlive(t) {
				nEdges++
				reach(t)
			}
		}
	}
	slices.Sort(pairs)
	for i, q := range pairs {
		local[q] = int32(i)
	}
	// Filtering preserves the product's edge order, so the condensation
	// depends on the inputs alone.
	off := make([]int32, len(pairs)+1)
	adj := make([]int32, 0, nEdges)
	for i, q := range pairs {
		for _, t := range prod.Succs(q) {
			if isAlive(t) {
				adj = append(adj, local[t])
			}
		}
		off[i+1] = int32(len(adj))
	}
	cond := graph.CondenseCSR(len(pairs), off, adj)

	arena := bitset.NewArena(space.Size())
	nWords := int32((space.Size() + 63) / 64)
	sets := make([]*bitset.Set, cond.NumComps)
	// spanLo/spanHi[c] is the half-open word range holding every set bit of
	// sets[c] (empty when lo >= hi). Unions, counts and the clears on
	// release run over spans instead of the full universe width, so the
	// kernel pays for the sets' actual extent — relevant sets are narrow in
	// a wide universe.
	spanLo := make([]int32, cond.NumComps)
	spanHi := make([]int32, cond.NumComps)
	pending := make([]int32, cond.NumComps)
	for c := range pending {
		pending[c] = int32(len(cond.Pred[c]))
	}
	release := func(c int32) {
		sets[c].ClearRange(int(spanLo[c]), int(spanHi[c]))
		arena.Put(sets[c])
		sets[c] = nil
	}

	// Invariant: sets[c] = data nodes reachable from c's pairs in >= 0 steps
	// *including c's own members* — i.e. what a predecessor comp sees
	// through c. A pair's own relevant set is the >= 1 step variant: for
	// trivial comps it is recorded before self-insertion, for nontrivial
	// comps after (mutual reachability puts members in their own relevant
	// sets, cf. Example 8 where DB3 ∈ R(DB,DB3)).
	for c := int32(0); c < int32(cond.NumComps); c++ {
		s := arena.Get()
		sLo, sHi := nWords, int32(0) // empty span
		for _, succ := range cond.Succ[c] {
			if spanLo[succ] < spanHi[succ] {
				s.UnionRange(sets[succ], int(spanLo[succ]), int(spanHi[succ]))
				sLo, sHi = min(sLo, spanLo[succ]), max(sHi, spanHi[succ])
			}
			// A successor returns to the arena once every predecessor has
			// taken its union.
			if pending[succ]--; pending[succ] == 0 {
				release(succ)
			}
		}
		addSelf := func(q int32) {
			if idx := space.Index(ci.V[q]); idx >= 0 {
				s.Add(int(idx))
				sLo, sHi = min(sLo, idx>>6), max(sHi, idx>>6+1)
			}
		}
		record := func(q int32) {
			if q < lo || q >= hi {
				return
			}
			i := q - lo
			res.Sizes[i] = int32(s.CountRange(int(sLo), int(sHi)))
			if keepSets {
				res.Sets[i] = s.Clone()
			}
		}
		// read reports whether a predecessor will union this set. Every
		// reached pair outside the root's candidates was reached through
		// an edge, so only root components can go unread.
		read := len(cond.Pred[c]) > 0
		if cond.Nontrivial[c] {
			for _, l := range cond.Members[c] {
				addSelf(pairs[l])
			}
			for _, l := range cond.Members[c] {
				record(pairs[l])
			}
		} else {
			q := pairs[cond.Members[c][0]]
			if keepSets && !read {
				// An unread root pair (the common case: the output node
				// has no predecessors in the reached region): hand the
				// arena set over instead of cloning it. Skipping the
				// self-insertion is sound because only predecessors
				// observe it.
				i := q - lo
				res.Sizes[i] = int32(s.CountRange(int(sLo), int(sHi)))
				res.Sets[i] = s
				continue
			}
			record(q)
			addSelf(q)
		}
		sets[c], spanLo[c], spanHi[c] = s, sLo, sHi
		if !read {
			release(c)
		}
	}
	return res
}

// RelevantSetNaive computes R(u,v) by a direct DFS over the product graph,
// returning the set of data nodes as a bitset over [0, g.NumNodes()). It is
// the reference implementation used by tests (and by tiny interactive
// queries); O(product size) per call. The accumulators are bitsets over the
// pair and node universes — the representation the rest of this file uses —
// rather than hash maps.
func RelevantSetNaive(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex,
	alive []bool, u int, v graph.NodeID) *bitset.Set {

	start := ci.Pair(u, v)
	if start < 0 || (alive != nil && !alive[start]) {
		return nil
	}
	adj := productAdjReference(g, p, ci, alive)
	seen := bitset.New(ci.NumPairs())
	out := bitset.New(g.NumNodes())
	var stack []int32
	visit := func(id int32) {
		if seen.Add(int(id)) {
			out.Add(int(ci.V[id]))
			stack = append(stack, id)
		}
	}
	adj(start, visit)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj(id, visit)
	}
	return out
}
