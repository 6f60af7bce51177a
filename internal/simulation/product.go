package simulation

import (
	"fmt"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// Product is the materialized CSR form of the candidate product graph: one
// node per candidate pair of a CandidateIndex, and an edge
// (u,v) → (u',v') whenever (u,u') ∈ Ep and (v,v') ∈ E with both endpoints
// candidates. Every per-query hot path — simulation refinement, relevant-set
// propagation, the incremental engine's match/finalization cascades — walks
// these edges repeatedly; before this structure existed each walk re-derived
// them through g.Out/g.In scans filtered by ci.Pair lookups (touching every
// non-candidate neighbour along the way). Building the adjacency once per
// (graph, pattern, candidates) turns all of those into linear scans over
// dense int32 slices, which is the access pattern the paper's complexity
// analysis (§3–§4) charges for.
//
// Layout. Forward edges are grouped by (pair, outgoing query edge): pair q
// of query node u owns one slot per edge of p.Out(u), in p.Out order; slot
// indices are absolute (Base[q]+j), shared with the refinement/engine
// counter arrays, and SlotOff[s]:SlotOff[s+1] delimits slot s's successors
// in Fwd. Within a slot, successors appear in ascending data-node order
// (g.Out is sorted), which makes every product traversal reproduce exactly
// the order of the pre-CSR reference kernel — the determinism tests rely on
// it. Reverse edges are grouped per pair: Rev[e] is a product predecessor of
// pair RevOff⁻¹(e) and RevSlot[e] is the absolute slot of the connecting
// query edge in the predecessor's counters, so cascade loops decrement
// cnt[RevSlot[e]] directly without any slot lookup.
type Product struct {
	G  *graph.Graph
	P  *pattern.Pattern
	CI *CandidateIndex

	// Base[q] is the first slot of pair q (one slot per outgoing query edge
	// of q's query node, in p.Out order); Base[NumPairs()] is the slot count.
	Base []int32
	// SlotOff[s] is the first forward edge of slot s; len = slots+1.
	SlotOff []int32
	// Fwd holds successor pair IDs, grouped by slot.
	Fwd []int32
	// RevOff[q] is the first reverse edge of pair q; len = NumPairs()+1.
	RevOff []int32
	// Rev holds predecessor pair IDs; RevSlot the absolute slot (index into
	// counter arrays laid out by Base) of the connecting query edge.
	Rev     []int32
	RevSlot []int32
}

// BuildProduct materializes the product CSR for p against g over the
// candidate pairs of ci in one append-based pass that derives every product
// edge once: slots in (pair, query edge) order, successors in ascending
// data-node order. workers is ignored; the parameter stays until the tracked
// benchmark, which passes it, stops doing so.
func BuildProduct(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex, workers int) *Product {
	nq := p.NumNodes()
	total := ci.NumPairs()

	pr := &Product{G: g, P: p, CI: ci}
	outDeg := make([]int32, nq)
	for u := 0; u < nq; u++ {
		outDeg[u] = int32(len(p.Out(u)))
	}
	base := make([]int32, total+1)
	for q := 0; q < total; q++ {
		base[q+1] = base[q] + outDeg[ci.U[q]]
	}
	slotOff := make([]int32, int(base[total])+1)

	fwd := make([]int32, 0, total*4)
	for q := int32(0); q < int32(total); q++ {
		u := int(ci.U[q])
		v := ci.V[q]
		b := base[q]
		for j, uc := range p.Out(u) {
			for _, w := range g.Out(v) {
				if pid := ci.Pair(uc, w); pid >= 0 {
					fwd = append(fwd, pid)
				}
			}
			if len(fwd) > int(^uint32(0)>>1) {
				panic(fmt.Sprintf("simulation: product graph exceeds %d edges", ^uint32(0)>>1))
			}
			slotOff[b+int32(j)+1] = int32(len(fwd))
		}
	}

	pr.Base = base
	pr.SlotOff = slotOff
	pr.Fwd = fwd
	pr.buildReverse()
	return pr
}

// buildReverse derives the reverse CSR from the forward arrays: one
// sequential counting pass and one sequential fill in ascending (source
// pair, slot) order, so each pair's reverse list is sorted by the
// predecessor's absolute slot. Shared by BuildProduct and the incremental
// PatchProduct, which is what keeps the two construction paths bit-for-bit
// identical.
func (pr *Product) buildReverse() {
	total := len(pr.Base) - 1
	base, slotOff, fwd := pr.Base, pr.SlotOff, pr.Fwd
	revOff := make([]int32, total+1)
	for _, t := range fwd {
		revOff[t+1]++
	}
	for q := 0; q < total; q++ {
		revOff[q+1] += revOff[q]
	}
	rev := make([]int32, len(fwd))
	revSlot := make([]int32, len(fwd))
	next := make([]int32, total)
	copy(next, revOff[:total])
	for q := int32(0); q < int32(total); q++ {
		for s := base[q]; s < base[q+1]; s++ {
			for e := slotOff[s]; e < slotOff[s+1]; e++ {
				t := fwd[e]
				rev[next[t]] = q
				revSlot[next[t]] = s
				next[t]++
			}
		}
	}
	pr.RevOff = revOff
	pr.Rev = rev
	pr.RevSlot = revSlot
}

// NumPairs returns the number of product nodes (candidate pairs).
func (pr *Product) NumPairs() int { return len(pr.RevOff) - 1 }

// NumEdges returns the number of product edges.
func (pr *Product) NumEdges() int { return len(pr.Fwd) }

// Succs returns all product successors of pair q (every outgoing query edge,
// slot by slot). The caller must not modify the slice.
func (pr *Product) Succs(q int32) []int32 {
	return pr.Fwd[pr.SlotOff[pr.Base[q]]:pr.SlotOff[pr.Base[q+1]]]
}

// SlotSuccs returns the product successors of pair q through its j-th
// outgoing query edge (p.Out order). The caller must not modify the slice.
func (pr *Product) SlotSuccs(q int32, j int) []int32 {
	s := pr.Base[q] + int32(j)
	return pr.Fwd[pr.SlotOff[s]:pr.SlotOff[s+1]]
}

// SlotLen returns the successor count of slot s (absolute slot index).
func (pr *Product) SlotLen(s int32) int32 { return pr.SlotOff[s+1] - pr.SlotOff[s] }
