package simulation

import (
	"errors"
	"fmt"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// ErrIncFallback is returned by IncCompute when a ratio check trips: the
// affected share of the candidate space is too large for incremental
// maintenance to pay off. The caller rebuilds the state with NewIncState or
// drops it.
var ErrIncFallback = errors.New("simulation: affected share above RecomputeRatio, incremental maintenance abandoned")

// This file implements delta maintenance of one (graph, pattern) evaluation:
// given the simulation fixpoint and product CSR of a graph snapshot and a
// graph.Delta, IncCompute produces the fixpoint and product of the next
// snapshot by touching only the affected area, and gives up (ErrIncFallback)
// once the affected share of the candidate space makes incremental work
// pointless. This is the simulation-family analogue of incremental
// pattern matching over an affected area (cf. Fan et al., "Incremental Graph
// Pattern Matching"): the class the paper's "frequently updated" motivation
// points at.
//
// Correctness rests on two facts about the counting-based refinement:
//
//  1. The maximum simulation is the greatest fixpoint of the child-condition
//     operator; running the kill cascade from ANY superset S0 of that
//     fixpoint, with counters consistent with S0, converges to exactly the
//     fixpoint. IncCompute builds S0 as (old alive pairs, remapped) ∪ (the
//     revival closure of pairs whose adjacency a delta insert could have
//     improved) ∪ (pairs of appended nodes) — provably a superset, because a
//     dead pair can only come alive through an inserted edge at its data
//     node or through a revived successor, and the closure chases exactly
//     that dependency backwards over reverse product edges.
//  2. At a fixpoint, every alive pair's slot counter equals its number of
//     alive successors (dead pairs stop decrementing, alive pairs never miss
//     a decrement). IncCompute therefore carries the settled counters across
//     deltas, recomputes them only for pairs in the affected area, and
//     increments the counters of untouched alive predecessors once per
//     revived successor — restoring consistency with S0 in time linear in
//     the affected area, not the product.
//
// The resulting Result and Product are byte-identical to a from-scratch
// Compute/BuildProduct on the new snapshot (the fixpoint is unique, and
// PatchProduct reproduces BuildProduct's layout exactly); the randomized
// delta-sequence fuzz in inc_test.go enforces this against the oracle.

// IncState is the maintained evaluation state of one pattern against one
// graph snapshot. Build the first one with NewIncState, then advance it one
// delta at a time with IncCompute. States are immutable snapshots like
// graphs: IncCompute returns a new state and leaves the old one usable.
type IncState struct {
	G    *graph.Graph
	P    *pattern.Pattern
	CI   *CandidateIndex
	Prod *Product
	Res  *Result

	// cnt holds the settled per-slot alive-successor counters of the
	// fixpoint (valid for alive pairs; frozen garbage for dead ones).
	cnt []int32
}

// NewIncState evaluates p against g from scratch (candidates, product CSR,
// simulation fixpoint). workers is ignored; the parameter stays until the
// tracked benchmark, which passes it, stops doing so.
func NewIncState(g *graph.Graph, p *pattern.Pattern, workers int) *IncState {
	ci := BuildCandidates(g, p)
	prod := BuildProduct(g, p, ci, 0)
	res, cnt := computeWithProductCnt(prod)
	return &IncState{G: g, P: p, CI: ci, Prod: prod, Res: res, cnt: cnt}
}

// IncOptions tune IncCompute.
type IncOptions struct {
	// RecomputeRatio is the affected-share threshold above which IncCompute
	// abandons incremental maintenance and returns ErrIncFallback (default
	// 0.25): once a quarter of the candidate pairs need fresh counters,
	// seeding the cascade costs as much as starting over.
	RecomputeRatio float64
	// NoFallback is ignored: past the ratio IncCompute always returns
	// ErrIncFallback. The field stays until the tracked benchmark, which
	// sets it, stops doing so.
	NoFallback bool
}

func (o IncOptions) ratio() float64 {
	if o.RecomputeRatio <= 0 {
		return 0.25
	}
	return o.RecomputeRatio
}

// IncStats describes what one IncCompute call did.
type IncStats struct {
	// TotalPairs is the candidate-pair count of the new snapshot.
	TotalPairs int
	// TouchedPairs counts pairs whose data node's out-adjacency the delta
	// changed, plus the pairs of appended nodes.
	TouchedPairs int
	// AffectedPairs counts the pairs whose counters were recomputed: touched
	// pairs plus the revival closure. Equal to TouchedPairs when the first
	// ratio check tripped (the closure is never computed then).
	AffectedPairs int
}

// IncCompute advances st by one delta: gNew must be the graph ApplyDelta
// produced from (st.G, d). It returns the evaluation state of gNew, with
// Res and Prod byte-identical to a from-scratch evaluation. The affected
// area is the pairs whose product adjacency or counters a delta entry can
// reach; when its share of the candidate space exceeds IncOptions'
// RecomputeRatio the call returns (nil, stats, ErrIncFallback) (checked
// twice: against the touched share before any product work, and against the
// closure share before the seeded cascade).
//
// A delta that reaches no candidate pair at all (see untouched) costs
// O(|d|·|Vp|): the state carries over whole, re-pointed at gNew.
func IncCompute(st *IncState, gNew *graph.Graph, d *graph.Delta, opts IncOptions) (*IncState, IncStats, error) {
	nOld := st.G.NumNodes()
	if gNew.NumNodes() != nOld+len(d.NodeAppends) {
		return nil, IncStats{}, fmt.Errorf("simulation: IncCompute: graph has %d nodes, want %d (old %d + %d appends) — gNew must be ApplyDelta(st.G, d)",
			gNew.NumNodes(), nOld+len(d.NodeAppends), nOld, len(d.NodeAppends))
	}
	if untouched(st, gNew, d) {
		// Candidates, product, fixpoint and counters are what a from-scratch
		// evaluation of gNew would build: share them. Only the product names
		// its graph, and the successor must not pin the superseded snapshot,
		// so it gets a shallow copy pointing at gNew.
		prod := *st.Prod
		prod.G = gNew
		return &IncState{G: gNew, P: st.P, CI: st.CI, Prod: &prod, Res: st.Res, cnt: st.cnt},
			IncStats{TotalPairs: st.CI.NumPairs()}, nil
	}
	return incAdvance(st, gNew, d, opts)
}

// incAdvance is IncCompute past its guard and its untouched shortcut: the
// affected-area maintenance proper. It is correct for every delta — on an
// untouched one it rebuilds, pair by pair, exactly what the shortcut shares,
// which inc_test.go holds it to.
func incAdvance(st *IncState, gNew *graph.Graph, d *graph.Delta, opts IncOptions) (*IncState, IncStats, error) {
	nOld := st.G.NumNodes()
	p, nq := st.P, st.P.NumNodes()

	// Candidacy depends only on node labels and attributes, which an
	// edge-only delta cannot touch: the old index is shared as-is (states
	// are immutable), sparing the O(|Vp|·|V|) pos-table copies.
	ci := st.CI
	if len(d.NodeAppends) > 0 {
		ci = extendCandidates(gNew, p, st.CI, nOld)
	}
	total := ci.NumPairs()
	stats := IncStats{TotalPairs: total}

	// shift[u] maps old pair IDs of query node u to new ones: appends land
	// at the tail of each candidate list, so positions of old candidates are
	// unchanged and only the per-query-node offsets move.
	shift := make([]int32, nq)
	for u := 0; u < nq; u++ {
		shift[u] = ci.Offsets[u] - st.CI.Offsets[u]
	}

	// touched[v]: v's out-adjacency changed, so every pair on v rebuilds its
	// forward slots and counters. Deletes cannot revive anything, but they
	// do change slot contents, so both directions count.
	touched := make([]bool, gNew.NumNodes())
	for _, e := range d.EdgeInserts {
		touched[e[0]] = true
	}
	for _, e := range d.EdgeDeletes {
		touched[e[0]] = true
	}
	for q := 0; q < total; q++ {
		if v := ci.V[q]; int(v) >= nOld || touched[v] {
			stats.TouchedPairs++
		}
	}

	if total == 0 || float64(stats.TouchedPairs)/float64(total) > opts.ratio() {
		stats.AffectedPairs = stats.TouchedPairs
		return nil, stats, ErrIncFallback
	}

	prod := PatchProduct(st.Prod, gNew, ci, shift, touched, nOld)

	// Seed S0: old alive pairs stay alive; touched dead pairs and appended
	// pairs are optimistically revived, then the revival closure chases dead
	// predecessors over reverse product edges (a dead pair can only come
	// alive through its own new edges or through a revived successor).
	inSim := make([]bool, total)
	recompute := make([]bool, total)
	var revive []int32
	for q := int32(0); q < int32(total); q++ {
		u, v := ci.U[q], ci.V[q]
		if int(v) >= nOld {
			inSim[q] = true
			recompute[q] = true
			revive = append(revive, q)
			continue
		}
		alive := st.Res.InSim[q-shift[u]]
		inSim[q] = alive
		if touched[v] {
			recompute[q] = true
			if !alive {
				inSim[q] = true
				revive = append(revive, q)
			}
		}
	}
	// The closure expansion is the shared affected-area traversal
	// (graph.Expand) that also drives the bound index's Advance: the same
	// worklist discipline, here over reverse product edges.
	revive = graph.Expand(revive, func(q int32, emit func(int32)) {
		for e := prod.RevOff[q]; e < prod.RevOff[q+1]; e++ {
			emit(prod.Rev[e])
		}
	}, func(pid int32) bool {
		if inSim[pid] {
			return false
		}
		inSim[pid] = true
		recompute[pid] = true
		return true
	})
	affected := 0
	for q := 0; q < total; q++ {
		if recompute[q] {
			affected++
		}
	}
	stats.AffectedPairs = affected
	if float64(affected)/float64(total) > opts.ratio() {
		return nil, stats, ErrIncFallback
	}

	// Counters consistent with the frozen S0 (no pair is killed until every
	// counter is settled, mirroring the fresh compute where counters are
	// structural slot lengths): affected pairs count their S0 successors
	// fresh; untouched alive pairs carry the settled fixpoint counters
	// (remapped to the new slot layout) plus one increment per revived
	// successor, which the old counters had decremented away. Every death —
	// including a revived pair that dies right back — then flows through the
	// cascade, decrementing exactly the counters that counted it.
	cnt := make([]int32, prod.Base[total])
	for q := int32(0); q < int32(total); q++ {
		if !inSim[q] {
			continue
		}
		b := prod.Base[q]
		if recompute[q] {
			for s := b; s < prod.Base[q+1]; s++ {
				c := int32(0)
				for e := prod.SlotOff[s]; e < prod.SlotOff[s+1]; e++ {
					if inSim[prod.Fwd[e]] {
						c++
					}
				}
				cnt[s] = c
			}
			continue
		}
		oldQ := q - shift[ci.U[q]]
		copy(cnt[b:prod.Base[q+1]], st.cnt[st.Prod.Base[oldQ]:st.Prod.Base[oldQ+1]])
	}
	for _, q := range revive {
		for e := prod.RevOff[q]; e < prod.RevOff[q+1]; e++ {
			pid := prod.Rev[e]
			if inSim[pid] && !recompute[pid] {
				cnt[prod.RevSlot[e]]++
			}
		}
	}

	// Seed the kill queue from the affected area: only freshly counted pairs
	// can hold a zero slot (untouched alive counters were >= 1 at the old
	// fixpoint and increments only grow them).
	var dead []int32
	for q := int32(0); q < int32(total); q++ {
		if !inSim[q] || !recompute[q] {
			continue
		}
		for s := prod.Base[q]; s < prod.Base[q+1]; s++ {
			if cnt[s] == 0 {
				inSim[q] = false
				dead = append(dead, q)
				break
			}
		}
	}

	// The standard kill cascade, seeded from the affected area only.
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
	return &IncState{G: gNew, P: p, CI: ci, Prod: prod, Res: res, cnt: cnt}, stats, nil
}

// untouched reports whether d reaches no candidate pair of st — exactly the
// deltas for which IncCompute's TouchedPairs is 0: no appended node satisfies
// a query node's search condition (so every candidate list stays as it is),
// and no inserted or deleted edge leaves a candidate (so every pair keeps its
// product slots; an edge out of a non-candidate, or out of an appended node
// that is none, is no product edge whatever it points at). Decided through the
// candidate index from the delta's entries alone, O(|d|·|Vp|): nothing here
// is sized by the graph or by the candidate space.
func untouched(st *IncState, gNew *graph.Graph, d *graph.Delta) bool {
	nq, nOld := st.P.NumNodes(), st.G.NumNodes()
	for i := range d.NodeAppends {
		for u := 0; u < nq; u++ {
			if st.P.MatchesNode(gNew, u, graph.NodeID(nOld+i)) {
				return false
			}
		}
	}
	for _, edges := range [2][][2]graph.NodeID{d.EdgeInserts, d.EdgeDeletes} {
		for _, e := range edges {
			// An appended source is past every pos table: no candidate, as
			// the loop above just established.
			for u := 0; u < nq; u++ {
				if st.CI.Pair(u, e[0]) >= 0 {
					return false
				}
			}
		}
	}
	return true
}

// extendCandidates derives the candidate index of the new snapshot from the
// old one: existing nodes never change label or attributes, so old candidate
// lists are reused verbatim and only the appended nodes (whose IDs exceed
// every old ID, keeping lists sorted) are filtered against each query node's
// search condition. The result is identical to BuildCandidates on the new
// graph.
func extendCandidates(gNew *graph.Graph, p *pattern.Pattern, old *CandidateIndex, nOld int) *CandidateIndex {
	nq := p.NumNodes()
	nNew := gNew.NumNodes()
	ci := &CandidateIndex{
		Lists:   make([][]graph.NodeID, nq),
		Offsets: make([]int32, nq+1),
		pos:     make([][]int32, nq),
	}
	for u := 0; u < nq; u++ {
		lst := old.Lists[u]
		lst = lst[:len(lst):len(lst)]
		for v := nOld; v < nNew; v++ {
			if p.MatchesNode(gNew, u, graph.NodeID(v)) {
				lst = append(lst, graph.NodeID(v))
			}
		}
		ci.Lists[u] = lst
		ci.Offsets[u+1] = ci.Offsets[u] + int32(len(lst))
	}
	total := int(ci.Offsets[nq])
	ci.U = make([]int32, total)
	ci.V = make([]graph.NodeID, total)
	for u := 0; u < nq; u++ {
		pos := make([]int32, nNew)
		copy(pos, old.pos[u])
		for i, v := range ci.Lists[u] {
			id := ci.Offsets[u] + int32(i)
			ci.U[id] = int32(u)
			ci.V[id] = v
			if i >= len(old.Lists[u]) {
				pos[v] = int32(i) + 1
			}
		}
		ci.pos[u] = pos
	}
	return ci
}

// PatchProduct derives the product CSR of the new snapshot from the old one
// in one linear merge pass: pairs whose data node kept its out-adjacency
// copy their slot lists with pair IDs remapped through the per-query-node
// shift (successor order is preserved, so the layout matches BuildProduct's
// exactly), while touched and appended pairs rebuild their slots by scanning
// the new adjacency. The reverse CSR is rebuilt by the same sequential pass
// BuildProduct uses. shift and touched are as computed by IncCompute; nOld
// is the old snapshot's node count.
func PatchProduct(old *Product, gNew *graph.Graph, ci *CandidateIndex, shift []int32, touched []bool, nOld int) *Product {
	p := old.P
	total := ci.NumPairs()
	base := make([]int32, total+1)
	for q := 0; q < total; q++ {
		base[q+1] = base[q] + int32(len(p.Out(int(ci.U[q]))))
	}
	slotOff := make([]int32, base[total]+1)
	fwd := make([]int32, 0, len(old.Fwd))
	oldCI := old.CI
	for q := int32(0); q < int32(total); q++ {
		u := int(ci.U[q])
		v := ci.V[q]
		b := base[q]
		if int(v) < nOld && !touched[v] {
			ob := old.Base[q-shift[u]]
			for j := range p.Out(u) {
				s := ob + int32(j)
				for e := old.SlotOff[s]; e < old.SlotOff[s+1]; e++ {
					t := old.Fwd[e]
					fwd = append(fwd, t+shift[oldCI.U[t]])
				}
				slotOff[b+int32(j)+1] = int32(len(fwd))
			}
		} else {
			for j, uc := range p.Out(u) {
				for _, w := range gNew.Out(v) {
					if pid := ci.Pair(uc, w); pid >= 0 {
						fwd = append(fwd, pid)
					}
				}
				slotOff[b+int32(j)+1] = int32(len(fwd))
			}
		}
		if len(fwd) > int(^uint32(0)>>1) {
			panic(fmt.Sprintf("simulation: product graph exceeds %d edges", ^uint32(0)>>1))
		}
	}
	pr := &Product{G: gNew, P: p, CI: ci, Base: base, SlotOff: slotOff, Fwd: fwd}
	pr.buildReverse()
	return pr
}
