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
// keepSets=false only the sizes survive. It and the early-termination engine
// (internal/core) are the two callers of SweepRelevant.
//
// Only the region the root reaches can enter a relevant set, so a DFS from
// the alive root pairs over the alive product collects the reached pairs (in
// a map, so that pairs the root cannot reach cost nothing) and the sweep
// condenses those alone: cost and allocation follow the reached region and
// the width of Space, not the product's pair count.
func ComputeRelevant(prod *Product, space *RelSpace, alive []bool, root int, keepSets bool) *RelevantResult {
	lo, hi := prod.CI.PairRange(root)
	res := &RelevantResult{
		Space: space,
		Sizes: make([]int32, hi-lo),
		Sets:  make([]*bitset.Set, hi-lo),
	}
	for i := range res.Sizes {
		res.Sizes[i] = -1
	}
	isAlive := func(q int32) bool { return alive == nil || alive[q] }

	local := make(map[int32]int32)
	var region, stack []int32
	reach := func(q int32) {
		if !isAlive(q) {
			return
		}
		if _, ok := local[q]; !ok {
			local[q] = int32(len(region))
			region = append(region, q)
			stack = append(stack, q)
		}
	}
	for q := lo; q < hi; q++ {
		reach(q)
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range prod.Succs(q) {
			reach(t)
		}
	}
	// A slab of this call's own: the root sets taken over below keep their
	// blocks after the sweep.
	SweepRelevant(prod, space, new(bitset.Slab), region,
		func(q int32) (int32, bool) { l, ok := local[q]; return l, ok }, nil,
		func(q int32, w []uint64, sLo, sHi int32, last bool) bool {
			if q < lo || q >= hi {
				return false
			}
			res.Sizes[q-lo] = 0
			if sLo < sHi { // an empty span has sLo > sHi
				res.Sizes[q-lo] = int32(bitset.CountWords(w[sLo:sHi]))
			}
			if keepSets && last {
				// An unread root pair (the common case: the output node has
				// no predecessors in the region): take the slab block over
				// instead of copying it.
				res.Sets[q-lo] = bitset.FromWords(w, space.Size())
			} else if keepSets {
				res.Sets[q-lo] = bitset.FromWords(slices.Clone(w), space.Size())
			}
			return keepSets && last
		})
	return res
}

// SweepRelevant is the relevance kernel: it computes the relevant set of
// every pair of a region of the product graph in one sweep. The region is
// condensed with graph.CondenseCSR; SCC indices are a reverse topological
// order, so one pass in index order computes every component after all of
// its successors. Working sets are blocks of work, which the sweep resets on
// entry; a block returns to the sweep's free list once every predecessor
// has consumed it, so memory follows the condensed region's frontier, not
// its size.
//
// region lists the pairs to compute; local(q) gives q's index in region and
// whether q lies in it. Any other successor t contributes outside(t), the
// set it already stores (unchanged by the sweep), plus its own node, unless
// outside is nil or returns nil for t. store receives each region pair's
// finished set as the words w of a block of work, every set bit in words
// [lo, hi) (an empty set has lo > hi). w is the kernel's: store copies what
// it keeps, except that when last is set no other region pair reads w and
// store may take the block over by returning true. The block then stays
// valid only until work's next Reset, so only a caller that hands the sweep
// a slab of its own, used for nothing else, may take blocks over.
func SweepRelevant(prod *Product, space *RelSpace, work *bitset.Slab, region []int32,
	local func(q int32) (int32, bool), outside func(q int32) []uint64,
	store func(q int32, w []uint64, lo, hi int32, last bool) bool) {

	// adj holds the successors inside the region, by local number (filtering
	// preserves the product's edge order); ext the others that contribute.
	off := make([]int32, len(region)+1)
	extOff := make([]int32, len(region)+1)
	adj := make([]int32, 0, len(region))
	var ext []int32
	for i, q := range region {
		for _, t := range prod.Succs(q) {
			if l, ok := local(t); ok {
				adj = append(adj, l)
			} else if outside != nil && outside(t) != nil {
				ext = append(ext, t)
			}
		}
		off[i+1], extOff[i+1] = int32(len(adj)), int32(len(ext))
	}
	cond := graph.CondenseCSR(len(region), off, adj)

	ci := prod.CI
	work.Reset(space.Size())
	nWords := int32((space.Size() + 63) / 64)
	// blocks[c] is the handle of component c's set, free the handles of the
	// released blocks (each cleared again).
	blocks := make([]int32, cond.NumComps)
	var free []int32
	// spanLo/spanHi[c] is the half-open word range holding every set bit of
	// component c's set (empty when lo >= hi): unions, counts and clears run
	// over spans, not the universe's width, since relevant sets are narrow
	// in a wide one.
	spanLo := make([]int32, cond.NumComps)
	spanHi := make([]int32, cond.NumComps)
	pending := make([]int32, cond.NumComps)
	for c := range pending {
		pending[c] = int32(len(cond.Pred[c]))
	}
	release := func(c int32) {
		if spanLo[c] < spanHi[c] {
			clear(work.At(blocks[c])[spanLo[c]:spanHi[c]])
		}
		free = append(free, blocks[c])
	}
	var (
		w        []uint64
		sLo, sHi int32
	)
	addNode := func(q int32) {
		if idx := space.Index(ci.V[q]); idx >= 0 {
			bitset.AddBit(w, int(idx))
			sLo, sHi = min(sLo, idx>>6), max(sHi, idx>>6+1)
		}
	}

	// Invariant: component c's set = data nodes reachable from c's pairs in
	// >= 0 steps *including c's own members* — i.e. what a predecessor comp
	// sees through c. A pair's own relevant set is the >= 1 step variant:
	// for trivial comps it is stored before self-insertion, for nontrivial
	// comps after (mutual reachability puts members in their own relevant
	// sets, cf. Example 8 where DB3 ∈ R(DB,DB3)).
	for c := int32(0); c < int32(cond.NumComps); c++ {
		var h int32
		if n := len(free); n > 0 {
			h, free = free[n-1], free[:n-1]
		} else {
			h = work.Alloc()
		}
		w, sLo, sHi = work.At(h), nWords, 0 // empty span
		for _, succ := range cond.Succ[c] {
			if lo, hi := spanLo[succ], spanHi[succ]; lo < hi {
				bitset.UnionWords(w[lo:hi], work.At(blocks[succ])[lo:hi])
				sLo, sHi = min(sLo, lo), max(sHi, hi)
			}
			// A successor's block is freed once every predecessor has
			// taken its union.
			if pending[succ]--; pending[succ] == 0 {
				release(succ)
			}
		}
		for _, l := range cond.Members[c] {
			for _, t := range ext[extOff[l]:extOff[l+1]] {
				bitset.UnionWords(w, outside(t))
				sLo, sHi = 0, nWords
				addNode(t)
			}
		}
		// read reports whether a predecessor will union this set.
		read := len(cond.Pred[c]) > 0
		if cond.Nontrivial[c] {
			for _, l := range cond.Members[c] {
				addNode(region[l])
			}
			for _, l := range cond.Members[c] {
				store(region[l], w, sLo, sHi, false)
			}
		} else {
			q := region[cond.Members[c][0]]
			// Skipping the self-insertion of a set taken over is sound
			// because only predecessors observe it.
			if store(q, w, sLo, sHi, !read) {
				continue
			}
			addNode(q)
		}
		blocks[c], spanLo[c], spanHi[c] = h, sLo, sHi
		if !read {
			release(c)
		}
	}
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
