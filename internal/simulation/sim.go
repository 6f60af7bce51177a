package simulation

import (
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// Result is the maximum simulation relation M(Q,G) of §2.1, represented over
// the candidate pair IDs of a CandidateIndex.
type Result struct {
	CI *CandidateIndex
	// InSim[pair] reports whether the pair survives refinement, i.e. belongs
	// to the maximum relation satisfying the child condition of simulation.
	InSim []bool
	// Matched reports whether G matches Q: every query node has at least one
	// surviving pair. When false, the paper defines M(Q,G) = ∅ and therefore
	// Mu(Q,G,uo) = ∅; InSim is still populated for diagnostics.
	Matched bool
}

// Compute evaluates the maximum simulation of p in g by counting-based
// refinement: every candidate pair starts alive, and a pair (u,v) dies when
// for some query edge (u,u') no successor of v is an alive candidate of u'.
// Each pair keeps one counter per outgoing query edge; the death of a pair
// decrements the counters of its candidate predecessors, cascading in
// O(Σ_(u,u')∈Ep Σ_{v∈can(u')} deg_in(v)) ⊆ O(|Ep||E|) total time — the
// O(|G||Q| + |G|²) bound of the paper with the usual tighter accounting.
func Compute(g *graph.Graph, p *pattern.Pattern) *Result {
	ci := BuildCandidates(g, p)
	return ComputeWithCandidates(g, p, ci)
}

// ComputeWithCandidates is Compute with a prebuilt candidate index, so
// callers that already paid for the index can share it. Callers that also
// want the product CSR afterwards (the baseline shares it with the
// relevant-set kernel) should build it themselves and call
// ComputeWithProduct.
func ComputeWithCandidates(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex) *Result {
	return ComputeWithProduct(BuildProduct(g, p, ci, 0))
}

// ComputeWithProduct runs the counting-based refinement over a materialized
// product CSR. Per-edge counters are read off the slot ranges (the product
// build already did the successor scan), and the removal cascade walks the
// reverse product edges directly — no ci.Pair lookups, no scans over
// non-candidate neighbours. The fixpoint is unique, so the result is
// identical to the reference kernel's.
func ComputeWithProduct(prod *Product) *Result {
	res, _ := computeWithProductCnt(prod)
	return res
}

// computeWithProductCnt is ComputeWithProduct returning the settled per-slot
// counter array as well. For every pair alive at the fixpoint, cnt[s] is the
// number of alive successors of slot s — the invariant the incremental
// engine (IncCompute) seeds its delta maintenance from. Counters of dead
// pairs are frozen at their death value and are never read back.
func computeWithProductCnt(prod *Product) (*Result, []int32) {
	ci := prod.CI
	nq := len(ci.Lists)
	total := ci.NumPairs()
	inSim := make([]bool, total)
	for i := range inSim {
		inSim[i] = true
	}
	cnt := make([]int32, len(prod.SlotOff)-1)

	// Initialize counters from the slot ranges; a pair with an empty
	// outgoing-edge slot dies immediately.
	var dead []int32
	for q := int32(0); q < int32(total); q++ {
		die := false
		for s := prod.Base[q]; s < prod.Base[q+1]; s++ {
			c := prod.SlotOff[s+1] - prod.SlotOff[s]
			cnt[s] = c
			if c == 0 {
				die = true
			}
		}
		if die {
			inSim[q] = false
			dead = append(dead, q)
		}
	}

	// Cascade removals along reverse product edges.
	for len(dead) > 0 {
		id := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		for e := prod.RevOff[id]; e < prod.RevOff[id+1]; e++ {
			pid := prod.Rev[e]
			if !inSim[pid] {
				continue
			}
			s := prod.RevSlot[e]
			cnt[s]--
			if cnt[s] == 0 {
				inSim[pid] = false
				dead = append(dead, pid)
			}
		}
	}

	res := &Result{CI: ci, InSim: inSim, Matched: matched(ci, inSim, nq)}
	return res, cnt
}

// matched reports whether every query node retains at least one alive pair
// (the paper's global match condition: M(Q,G) = ∅ otherwise).
func matched(ci *CandidateIndex, inSim []bool, nq int) bool {
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
			return false
		}
	}
	return true
}

// MatchesOf returns the alive matches of query node u in ascending data-node
// order, or nil when G does not match Q (M(Q,G) = ∅ per §2.1).
func (r *Result) MatchesOf(u int) []graph.NodeID {
	if !r.Matched {
		return nil
	}
	lo, hi := r.CI.PairRange(u)
	out := make([]graph.NodeID, 0, hi-lo)
	for id := lo; id < hi; id++ {
		if r.InSim[id] {
			out = append(out, r.CI.V[id])
		}
	}
	return out
}

// Contains reports whether (u, v) is in M(Q,G).
func (r *Result) Contains(u int, v graph.NodeID) bool {
	if !r.Matched {
		return false
	}
	id := r.CI.Pair(u, v)
	return id >= 0 && r.InSim[id]
}
