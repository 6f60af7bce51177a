// Package simulation implements graph simulation [Henzinger-Henzinger-Kopke]
// as used by the paper: the unique maximum match relation M(Q,G) (§2.1), the
// candidate and match product graphs, and the relevant sets R(u,v) of §3.1
// that underlie the relevance function δr and the distance function δd.
//
// The full-evaluation path here (Compute + ComputeRelevant) is exactly the
// paper's baseline algorithm Match; it also serves as the correctness oracle
// for the early-termination engine in internal/core.
package simulation

import (
	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// CandidateIndex enumerates, for every query node u, the candidate set
// can(u): the data nodes satisfying u's search condition (label equality
// plus attribute predicates). Each (query node, data node) candidate pair is
// assigned a dense pair ID; pair IDs of a query node are contiguous.
type CandidateIndex struct {
	// Lists[u] holds can(u) in ascending data-node order.
	Lists [][]graph.NodeID
	// Offsets[u] is the first pair ID of query node u; Offsets[|Vp|] is the
	// total pair count.
	Offsets []int32
	// U and V map a pair ID back to its query node and data node.
	U []int32
	V []graph.NodeID

	// pos[u][v] is 1 + the position of v within Lists[u], or 0 when v is not
	// a candidate of u. Dense per-query-node arrays make the inner loops of
	// refinement and propagation branch-light. A table may stop short of the
	// graph's node count: IncCompute carries an index across a delta whose
	// appended nodes entered no candidate list without regrowing the tables,
	// so a node past the end is a non-candidate (see Pair).
	pos [][]int32
}

// BuildCandidates computes the candidate index of p against g: every query
// node's label list filtered by its search condition (label + attribute
// predicates).
func BuildCandidates(g *graph.Graph, p *pattern.Pattern) *CandidateIndex {
	nq := p.NumNodes()
	ci := &CandidateIndex{
		Lists:   make([][]graph.NodeID, nq),
		Offsets: make([]int32, nq+1),
		pos:     make([][]int32, nq),
	}
	for u := 0; u < nq; u++ {
		for _, v := range g.NodesWithLabel(p.Label(u)) {
			if p.MatchesNode(g, u, v) {
				ci.Lists[u] = append(ci.Lists[u], v)
			}
		}
		ci.Offsets[u+1] = ci.Offsets[u] + int32(len(ci.Lists[u]))
	}

	total := int(ci.Offsets[nq])
	ci.U = make([]int32, total)
	ci.V = make([]graph.NodeID, total)
	for u := 0; u < nq; u++ {
		ci.pos[u] = make([]int32, g.NumNodes())
		for i, v := range ci.Lists[u] {
			id := ci.Offsets[u] + int32(i)
			ci.U[id] = int32(u)
			ci.V[id] = v
			ci.pos[u][v] = int32(i) + 1
		}
	}
	return ci
}

// BuildCandidatesParallel is BuildCandidates; workers is ignored. It stays
// until the tracked benchmark, which calls it, stops doing so.
func BuildCandidatesParallel(g *graph.Graph, p *pattern.Pattern, workers int) *CandidateIndex {
	return BuildCandidates(g, p)
}

// NumPairs returns the total number of candidate pairs.
func (ci *CandidateIndex) NumPairs() int { return len(ci.U) }

// Pair returns the pair ID of (u, v), or -1 when v is not a candidate of u.
func (ci *CandidateIndex) Pair(u int, v graph.NodeID) int32 {
	if pos := ci.pos[u]; uint(v) < uint(len(pos)) {
		if p := pos[v]; p != 0 {
			return ci.Offsets[u] + p - 1
		}
	}
	return -1
}

// PairRange returns the half-open pair ID range [lo, hi) of query node u.
func (ci *CandidateIndex) PairRange(u int) (int32, int32) {
	return ci.Offsets[u], ci.Offsets[u+1]
}

// RelSpace is the dense universe over which relevant-set bitsets are
// defined: every data node that is a candidate of some query node reachable
// from the output node (those are the only nodes a relevant set can ever
// contain). Its size also yields the normalization constant C_uo of §3.3.
type RelSpace struct {
	// Nodes lists the universe in ascending data-node order.
	Nodes []graph.NodeID
	// index[v] is the dense index of data node v, or -1.
	index []int32
}

// BuildRelSpace constructs the relevant-node universe for p against g.
func BuildRelSpace(g *graph.Graph, p *pattern.Pattern, ci *CandidateIndex, an *pattern.Analysis) *RelSpace {
	rs := &RelSpace{index: make([]int32, g.NumNodes())}
	for i := range rs.index {
		rs.index[i] = -1
	}
	for u := 0; u < p.NumNodes(); u++ {
		if !an.OutputDesc[u] {
			continue
		}
		for _, v := range ci.Lists[u] {
			if rs.index[v] == -1 {
				rs.index[v] = 0 // mark; final indices assigned below
			}
		}
	}
	for v, mark := range rs.index {
		if mark == 0 {
			rs.index[v] = int32(len(rs.Nodes))
			rs.Nodes = append(rs.Nodes, graph.NodeID(v))
		}
	}
	return rs
}

// Size returns the universe size. (This is the number of *distinct* nodes;
// the normalization constant C_uo of §3.3 is the per-query-node sum and is
// computed by Cuo.)
func (rs *RelSpace) Size() int { return len(rs.Nodes) }

// Cuo returns the paper's normalization constant C_uo (§3.3): the total
// number of candidates of all query nodes the output node can reach,
// summed per query node. In Example 9 this is |can(DB)|+|can(PRG)|+|can(ST)|
// = 3+4+4 = 11. When descendant query nodes have disjoint labels (the usual
// case) this equals the distinct universe Size.
func Cuo(p *pattern.Pattern, ci *CandidateIndex, an *pattern.Analysis) int {
	total := 0
	for u := 0; u < p.NumNodes(); u++ {
		if an.OutputDesc[u] {
			total += len(ci.Lists[u])
		}
	}
	return total
}

// Index returns the dense index of data node v, or -1 when v cannot appear
// in any relevant set.
func (rs *RelSpace) Index(v graph.NodeID) int32 { return rs.index[v] }

// NewSet returns an empty bitset over the universe.
func (rs *RelSpace) NewSet() *bitset.Set { return bitset.New(len(rs.Nodes)) }

// NodesOf maps a bitset over the universe back to data-node IDs.
func (rs *RelSpace) NodesOf(s *bitset.Set) []graph.NodeID {
	out := make([]graph.NodeID, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, rs.Nodes[i])
		return true
	})
	return out
}
