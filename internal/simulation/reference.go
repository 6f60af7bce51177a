package simulation

import (
	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// This file freezes the pre-CSR evaluation kernel: refinement and
// relevant-set computation that re-derive product edges on the fly through
// ci.Pair lookups over g.Out/g.In, exactly as the code shipped before the
// materialized Product existed. It is a test oracle and nothing else: no
// shipped path and no option selects it. The kernel determinism tests
// compare the product-CSR kernel against ComputeReference and
// ComputeRelevantReference directly, or end to end through internal/oracle
// (which composes the two into a find-all result) — byte-identical.
//
// The only deliberate deviation from the historical code is the dense
// childSlot table below (the historical map[int]int32 was pure overhead in
// the cascade loop; patterns are tiny, so a |Vp|² table is free).

// childSlotTable returns slot[u*nq+uc] = position of query edge (u,uc) in
// p.Out(u), or -1. Query edges are unique (pattern.AddEdge rejects
// duplicates).
func childSlotTable(p *pattern.Pattern) []int32 {
	nq := p.NumNodes()
	slot := make([]int32, nq*nq)
	for i := range slot {
		slot[i] = -1
	}
	for u := 0; u < nq; u++ {
		for j, uc := range p.Out(u) {
			slot[u*nq+uc] = int32(j)
		}
	}
	return slot
}

// ComputeReference evaluates the maximum simulation with the pre-CSR
// counting-based refinement: counters are initialized by scanning g.Out with
// ci.Pair lookups and the removal cascade scans g.In the same way. See
// ComputeWithCandidates for the semantics; the result is identical.
func ComputeReference(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex) *Result {
	nq := p.NumNodes()
	total := ci.NumPairs()
	inSim := make([]bool, total)
	for i := range inSim {
		inSim[i] = true
	}

	childBase := make([]int32, total+1)
	for id := 0; id < total; id++ {
		childBase[id+1] = childBase[id] + int32(len(p.Out(int(ci.U[id]))))
	}
	cnt := make([]int32, childBase[total])

	var dead []int32
	kill := func(id int32) {
		if inSim[id] {
			inSim[id] = false
			dead = append(dead, id)
		}
	}

	// Initialize counters: cnt[(u,v), j] = |succ(v) ∩ can(u_j')|.
	for u := 0; u < nq; u++ {
		children := p.Out(u)
		lo, hi := ci.PairRange(u)
		for id := lo; id < hi; id++ {
			v := ci.V[id]
			base := childBase[id]
			for j, uc := range children {
				c := int32(0)
				for _, w := range g.Out(v) {
					if ci.Pair(uc, w) >= 0 {
						c++
					}
				}
				cnt[base+int32(j)] = c
				if c == 0 {
					kill(id)
				}
			}
		}
	}

	childSlot := childSlotTable(p)

	// Cascade removals.
	for len(dead) > 0 {
		id := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		u := int(ci.U[id])
		v := ci.V[id]
		for _, up := range p.In(u) {
			slot := childSlot[up*nq+u]
			for _, w := range g.In(v) {
				pid := ci.Pair(up, w)
				if pid < 0 || !inSim[pid] {
					continue
				}
				s := childBase[pid] + slot
				cnt[s]--
				if cnt[s] == 0 {
					kill(pid)
				}
			}
		}
	}

	res := &Result{CI: ci, InSim: inSim, Matched: true}
	for u := 0; u < nq; u++ {
		lo, hi := ci.PairRange(u)
		any := false
		for id := lo; id < hi; id++ {
			if inSim[id] {
				any = true
				break
			}
		}
		if !any {
			res.Matched = false
			break
		}
	}
	return res
}

// productAdjReference returns an adjacency callback over pairs of ci
// restricted to alive pairs, deriving product edges on the fly (the pre-CSR
// representation). A nil alive mask means all candidate pairs are alive.
func productAdjReference(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex, alive []bool) graph.AdjFunc {
	return func(id int32, emit func(int32)) {
		if alive != nil && !alive[id] {
			return
		}
		u := int(ci.U[id])
		v := ci.V[id]
		for _, uc := range p.Out(u) {
			for _, w := range g.Out(v) {
				pid := ci.Pair(uc, w)
				if pid >= 0 && (alive == nil || alive[pid]) {
					emit(pid)
				}
			}
		}
	}
}

// relevantQueryNodes marks the query nodes whose candidates can contribute
// to relevant sets of root: root itself and everything reachable from it.
func relevantQueryNodes(p *pattern.Pattern, an *pattern.Analysis, root int) []bool {
	relQ := make([]bool, p.NumNodes())
	relQ[root] = true
	for u := 0; u < p.NumNodes(); u++ {
		if an.OutputDesc[u] {
			relQ[u] = true
		}
	}
	// OutputDesc is relative to p.Output(); when root differs (multi-output
	// extension), recompute reachability from root.
	if root != p.Output() {
		for i := range relQ {
			relQ[i] = i == root
		}
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range p.Out(u) {
				if !relQ[w] {
					relQ[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return relQ
}

// recordRoot stores the set/size for pairs of the root query node.
func recordRoot(res *RelevantResult, ci *CandidateIndex, lo, hi, id int32,
	shared *bitset.Set, keepSets bool) {
	if id < lo || id >= hi {
		return
	}
	i := id - lo
	res.Sizes[i] = int32(shared.Count())
	if keepSets {
		res.Sets[i] = shared.Clone()
	}
}

// ComputeRelevantReference computes relevant sets with the pre-CSR kernel:
// the condensation is built through the on-the-fly adjacency callback and
// every component allocates a fresh bitset. See ComputeRelevant for the
// semantics; sizes and sets are identical.
func ComputeRelevantReference(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex,
	an *pattern.Analysis, space *RelSpace, alive []bool, root int, keepSets bool) *RelevantResult {

	lo, hi := ci.PairRange(root)
	res := &RelevantResult{
		Space: space,
		Sizes: make([]int32, hi-lo),
		Sets:  make([]*bitset.Set, hi-lo),
	}
	for i := range res.Sizes {
		res.Sizes[i] = -1
	}

	relQ := relevantQueryNodes(p, an, root)

	adj := productAdjReference(g, p, ci, alive)
	restricted := func(id int32, emit func(int32)) {
		if !relQ[ci.U[id]] {
			return
		}
		adj(id, emit)
	}
	cond := graph.Condense(ci.NumPairs(), restricted)

	sets := make([]*bitset.Set, cond.NumComps)
	pending := make([]int, cond.NumComps)
	keep := make([]bool, cond.NumComps)
	for c := 0; c < cond.NumComps; c++ {
		pending[c] = len(cond.Pred[c])
	}
	for id := lo; id < hi; id++ {
		if alive == nil || alive[id] {
			keep[cond.Comp[id]] = true
		}
	}

	release := func(c int32) {
		pending[c]--
		if pending[c] == 0 && !keep[c] {
			sets[c] = nil
		}
	}

	for c := 0; c < cond.NumComps; c++ {
		if len(cond.Members[c]) == 1 && len(cond.Succ[c]) == 0 && !cond.Nontrivial[c] {
			id := cond.Members[c][0]
			if !relQ[ci.U[id]] || (alive != nil && !alive[id]) {
				continue
			}
		}
		s := space.NewSet()
		for _, succ := range cond.Succ[c] {
			if sets[succ] != nil {
				s.UnionWith(sets[succ])
			}
			release(succ)
		}
		if cond.Nontrivial[c] {
			for _, id := range cond.Members[c] {
				if idx := space.Index(ci.V[id]); idx >= 0 {
					s.Add(int(idx))
				}
			}
			for _, id := range cond.Members[c] {
				recordRoot(res, ci, lo, hi, id, s, keepSets)
			}
		} else {
			id := cond.Members[c][0]
			recordRoot(res, ci, lo, hi, id, s, keepSets)
			if idx := space.Index(ci.V[id]); idx >= 0 {
				s.Add(int(idx))
			}
		}
		sets[c] = s
		if pending[c] == 0 && !keep[c] {
			sets[c] = nil
		}
	}
	return res
}
