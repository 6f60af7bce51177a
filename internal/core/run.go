package core

import (
	"cmp"
	"slices"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// TopK computes top-k matches of the output node of p in g ranked by the
// relevance function δr, with the early termination property (Prop. 2/3 of
// the paper): it stops as soon as the k best discovered matches provably
// dominate every other candidate, without computing all of M(Q,G). It
// handles both DAG and cyclic patterns: on a DAG pattern it is the paper's
// TopKDAG (§4.1), on a cyclic one its TopK (§4.2), and with StrategyRandom
// the nopt variant of either.
func TopK(g *graph.Graph, p *pattern.Pattern, k int, opts Options) (*Result, error) {
	e, err := newEngine(g, p, k, opts)
	if err != nil {
		return nil, err
	}
	defer e.release()
	return e.run(), nil
}

// feed marks one leaf pair visited. Trivial leaves (no outgoing query edges)
// are matches by definition and finalize immediately; leaves of cyclic units
// join the unit's active set and trigger re-refinement.
func (e *engine) feed(q int32) {
	if e.fed[q] || e.status[q] == statusDead {
		return
	}
	e.fed[q] = true
	unit := e.unitOf[e.ci.U[q]]
	if e.unitNontrivial[unit] {
		e.outstandingDec(unit)
		e.markDirty(unit)
		return
	}
	e.becomeMatched(q)
	e.finalizePair(q)
}

// run drives the batch loop to termination and assembles the result.
func (e *engine) run() *Result {
	res := &Result{Space: e.space, Stats: e.stats}
	if e.abortedEmpty {
		res.Stats.MatchesFound = 0
		return res
	}
	res.Cuo = simulation.Cuo(e.p, e.ci, e.an)
	if e.opts.Hook != nil {
		e.opts.Hook.Begin(res.Cuo)
	}

	for !e.abortedEmpty {
		batch := e.feeder.next(e)
		if len(batch) == 0 {
			break // exhausted: everything known is final
		}
		e.stats.Batches++
		uoBefore := e.matchCnt[e.uo]
		for _, q := range batch {
			e.feed(q)
		}
		e.drainEvents()
		e.propagateRelevance()

		if e.opts.Hook != nil {
			e.opts.Hook.Batch(e.newOutputMatches(uoBefore))
		}

		if e.checkTermination() {
			e.stats.EarlyTerminated = !e.feeder.done(e)
			break
		}
	}

	return e.assemble(res)
}

// newOutputMatches returns handles for the output-node matches discovered
// since the count was uoBefore, in pair order, marking them surfaced. The
// slice is reused by the next batch.
func (e *engine) newOutputMatches(uoBefore int32) []PairHandle {
	e.handles = e.handles[:0]
	if e.matchCnt[e.uo] == uoBefore {
		return e.handles
	}
	for q := e.uoLo; q < e.uoHi; q++ {
		if e.status[q] == statusMatched && !e.hookReported[q-e.uoLo] {
			e.hookReported[q-e.uoLo] = true
			e.handles = append(e.handles, PairHandle{e: e, pair: q})
		}
	}
	return e.handles
}

// lowerOf returns the current lower bound l of output pair q: the size of
// its partial relevant set.
func (e *engine) lowerOf(q int32) int {
	if s := e.outSets[q-e.uoLo]; s != nil {
		return s.Count()
	}
	return 0
}

// worse orders output candidates for the top-k selection: a ranks below b
// under (l desc, pair asc).
func worse(a, b cand) bool {
	if a.l != b.l {
		return a.l < b.l
	}
	return a.q > b.q
}

// checkTermination evaluates Proposition 3: S (the k discovered matches
// with the largest lower bounds) is a top-k set once every query node has a
// match (the simulation's global condition, which also makes non-root
// output nodes correct) and min_{v∈S} l(v) ≥ max_{v'∉S, live} h(v').
//
// S is selected with a k-bounded heap whose root is S's worst member under
// (l desc, pair asc); a pair belongs to S exactly when it does not rank
// below that root, so no sort of all matches and no membership table is
// needed.
func (e *engine) checkTermination() bool {
	for u := 0; u < e.nq; u++ {
		if e.matchCnt[u] == 0 {
			return false
		}
	}
	if int(e.matchCnt[e.uo]) < e.k {
		return false
	}

	sel := e.sel[:0]
	for q := e.uoLo; q < e.uoHi; q++ {
		if e.status[q] != statusMatched {
			continue
		}
		c := cand{q: q, l: int32(e.lowerOf(q))}
		e.lower[q-e.uoLo] = c.l
		switch {
		case len(sel) < e.k:
			// Sift up.
			sel = append(sel, c)
			for i := len(sel) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(sel[i], sel[parent]) {
					break
				}
				sel[i], sel[parent] = sel[parent], sel[i]
				i = parent
			}
		case worse(sel[0], c):
			// Replace the root and sift down.
			sel[0] = c
			for i := 0; ; {
				least := i
				if l := 2*i + 1; l < len(sel) && worse(sel[l], sel[least]) {
					least = l
				}
				if r := 2*i + 2; r < len(sel) && worse(sel[r], sel[least]) {
					least = r
				}
				if least == i {
					break
				}
				sel[i], sel[least] = sel[least], sel[i]
				i = least
			}
		}
	}
	e.sel = sel
	kth := sel[0]

	for q := e.uoLo; q < e.uoHi; q++ {
		matched := e.status[q] == statusMatched
		if e.status[q] == statusDead ||
			matched && !worse(cand{q: q, l: e.lower[q-e.uoLo]}, kth) {
			continue // dead, or a member of S
		}
		h := e.upper[q-e.uoLo]
		if e.finalized[q] {
			h = e.lower[q-e.uoLo] // finalized and alive means matched: h = l
		}
		if h > kth.l {
			return false
		}
	}
	return true
}

// assemble builds the Result from the engine state at termination.
func (e *engine) assemble(res *Result) *Result {
	res.Stats = e.stats
	res.GlobalMatch = !e.abortedEmpty
	for u := 0; u < e.nq && res.GlobalMatch; u++ {
		if e.matchCnt[u] == 0 {
			res.GlobalMatch = false
		}
	}
	if !res.GlobalMatch {
		// M(Q,G) = ∅: report the work done but no matches.
		res.Stats.MatchesFound = 0
		return res
	}

	res.All = make([]Match, 0, e.matchCnt[e.uo])
	for q := e.uoLo; q < e.uoHi; q++ {
		if e.status[q] != statusMatched {
			continue
		}
		l := e.lowerOf(q)
		h := int(e.upper[q-e.uoLo])
		if e.finalized[q] {
			h = l
		}
		res.All = append(res.All, Match{
			Node:      e.ci.V[q],
			Relevance: l,
			Upper:     h,
			// Coinciding bounds pin δr even without finalization.
			Exact: e.finalized[q] || h == l,
			R:     e.outSets[q-e.uoLo],
		})
	}
	// (relevance desc, node asc) is a total order: nodes are distinct.
	slices.SortFunc(res.All, func(a, b Match) int {
		if a.Relevance != b.Relevance {
			return cmp.Compare(b.Relevance, a.Relevance)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	res.Stats.MatchesFound = len(res.All)
	top := e.k
	if top > len(res.All) {
		top = len(res.All)
	}
	res.Matches = res.All[:top]
	return res
}
