package diversify

import (
	"fmt"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/ranking"
)

// TopKDH is the early-termination diversification heuristic of §5.2. It
// runs the incremental engine exactly like TopK (same propagation, same
// Proposition-3 termination), but selects the returned set greedily by the
// partial objective F”: per batch, newly discovered matches of the output
// node either fill S (while |S| < k) or replace the member whose swap
// maximizes F”(S\{v}∪{v'}) − F”(S), where F” evaluates relevance by the
// current lower bounds v.l/C_uo and distance by the Jaccard of the current
// partial relevant sets (Example 10).
func TopKDH(g *graph.Graph, p *pattern.Pattern, k int, lambda float64, opts core.Options) (*Result, error) {
	params := ranking.DiversifyParams{Lambda: lambda, K: k}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	sel := &swapSelector{k: k, params: &params}
	opts.Hook = sel
	engRes, err := core.TopK(g, p, k, opts)
	if err != nil {
		return nil, err
	}
	params.Cuo = engRes.Cuo
	res := &Result{Params: params, Stats: engRes.Stats, GlobalMatch: engRes.GlobalMatch}
	if !engRes.GlobalMatch {
		return res, nil
	}

	// Map the selector's choice to the final engine state. (The handles
	// referenced live state; the result carries the settled values.) Every
	// member was handed to the selector as a discovered match of uo, so it
	// must appear in All; a miss means the engine and selector disagree
	// about the discovered set, and silently dropping it would return fewer
	// than min(k, |Mu|) matches with no signal.
	final := make(map[graph.NodeID]core.Match, len(engRes.All))
	for _, m := range engRes.All {
		final[m.Node] = m
	}
	for _, n := range sel.members {
		m, ok := final[n]
		if !ok {
			return nil, fmt.Errorf("diversify: internal error: selected match %d missing from final engine state", n)
		}
		res.Matches = append(res.Matches, m)
	}
	// Note: with early termination the relevant sets behind res.Matches may
	// be partial, so this F is the heuristic's own estimate. Use ExactF to
	// score the selected set under the true diversification function (what
	// the paper's Fig. 5(i) compares).
	res.F = evalF(params, res.Matches)
	return res, nil
}

// ExactF evaluates the true diversification function F on a set of output
// matches, recomputing their exact relevant sets via full evaluation. It is
// the scoring used when comparing TopKDH's answer quality against TopKDiv's
// (the heuristic's own Result.F is based on possibly-partial sets).
func ExactF(g *graph.Graph, p *pattern.Pattern, nodes []graph.NodeID, lambda float64, k int) (float64, error) {
	params := ranking.DiversifyParams{Lambda: lambda, K: k}
	if err := params.Validate(); err != nil {
		return 0, err
	}
	base, err := core.MatchBaseline(g, p, k, true)
	if err != nil {
		return 0, err
	}
	params.Cuo = base.Cuo
	byNode := make(map[graph.NodeID]core.Match, len(base.All))
	for _, m := range base.All {
		byNode[m.Node] = m
	}
	sel := make([]core.Match, 0, len(nodes))
	for _, n := range nodes {
		m, ok := byNode[n]
		if !ok {
			return 0, fmt.Errorf("diversify: node %d is not a match", n)
		}
		sel = append(sel, m)
	}
	return evalF(params, sel), nil
}

// swapSelector maintains the heuristic set S across engine batches.
//
// The engine's state is frozen while Batch runs, so within one call every
// member's lower bound and every pairwise distance among members is a
// constant: the selector computes them once per call (refresh) and, per new
// match, only that match's k distances to the members. The k+1 candidate
// values of F” are then sums of those memoized float64 terms, added in
// DiversifyParams.F's own order (DiversifyParams.FSwap) — the selections and
// the reported F are bit-identical to re-evaluating every Jaccard from the
// sets, at O(k) set scans per match instead of O(k³). Between calls the
// members' sets are live and grow, which is why the memo does not outlive
// the call.
type swapSelector struct {
	k      int
	params *ranking.DiversifyParams

	members []graph.NodeID
	handles []core.PairHandle

	lower   []int     // members' lower bounds |R|, this call
	normRel []float64 // the same, normalized
	dist    []float64 // k×k member distances (row-major, symmetric), this call
	toNew   []float64 // distances from the match under consideration
}

// Begin implements core.Hook: F” needs C_uo before the first swap.
func (s *swapSelector) Begin(cuo int) { s.params.Cuo = cuo }

// Batch implements core.Hook.
func (s *swapSelector) Batch(newMatches []core.PairHandle) {
	fresh := false
	for _, h := range newMatches {
		if len(s.members) < s.k {
			s.members = append(s.members, h.Node())
			s.handles = append(s.handles, h)
			continue
		}
		if !fresh {
			s.refresh()
			fresh = true
		}
		s.trySwap(h)
	}
}

// usesDistance reports whether F” weighs distances at all (λ = 0 and k = 1
// do not); when it does not, no set is ever compared.
func (s *swapSelector) usesDistance() bool { return s.params.DiversityScale() != 0 }

// refresh recomputes the members' lower bounds and distance matrix from the
// live engine state.
func (s *swapSelector) refresh() {
	k := s.k
	if s.lower == nil {
		s.lower = make([]int, k)
		s.normRel, s.toNew, s.dist = make([]float64, k), make([]float64, k), make([]float64, k*k)
	}
	for i, h := range s.handles {
		s.lower[i] = h.Lower()
		s.normRel[i] = s.params.NormRel(float64(s.lower[i]))
	}
	if !s.usesDistance() {
		return
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := ranking.DistanceSized(s.handles[i].R(), s.handles[j].R(), s.lower[i], s.lower[j])
			s.dist[i*k+j], s.dist[j*k+i] = d, d
		}
	}
}

// trySwap replaces the member whose substitution by h maximizes the F” gain
// (if any gain is positive).
func (s *swapSelector) trySwap(h core.PairHandle) {
	k := s.k
	lower := h.Lower()
	rel := s.params.NormRel(float64(lower))
	if s.usesDistance() {
		// Jaccard is symmetric down to the bit: toNew serves as the new
		// match's row and column alike.
		for i, m := range s.handles {
			s.toNew[i] = ranking.DistanceSized(m.R(), h.R(), s.lower[i], lower)
		}
	}

	cur := s.params.FSwap(s.normRel, s.dist, -1, 0, nil)
	bestGain, bestIdx := 0.0, -1
	for r := 0; r < k; r++ {
		if gain := s.params.FSwap(s.normRel, s.dist, r, rel, s.toNew) - cur; gain > bestGain {
			bestGain, bestIdx = gain, r
		}
	}
	if bestIdx < 0 {
		return
	}
	r := bestIdx
	s.members[r] = h.Node()
	s.handles[r] = h
	s.lower[r], s.normRel[r] = lower, rel
	for i := 0; i < k; i++ {
		if i != r {
			s.dist[i*k+r], s.dist[r*k+i] = s.toNew[i], s.toNew[i]
		}
	}
}
