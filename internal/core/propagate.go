package core

import (
	"fmt"

	"divtopk/internal/simulation"
)

// becomeMatched transitions a pair to matched and queues the match event.
// Matched pairs never revert (the boolean system is monotone in the fed
// leaves, which is what lets the engine trust partial lower bounds).
func (e *engine) becomeMatched(q int32) {
	switch e.status[q] {
	case statusMatched:
		return
	case statusDead:
		panic(fmt.Sprintf("core: dead pair (%d,%d) matched", e.ci.U[q], e.ci.V[q]))
	}
	e.status[q] = statusMatched
	e.matchCnt[e.ci.U[q]]++
	e.newRelM = append(e.newRelM, q)
	e.matchQ = append(e.matchQ, q)
}

// die transitions a pair to dead (and therefore finalized) and queues the
// finalization event.
func (e *engine) die(q int32) {
	if e.status[q] == statusDead {
		return
	}
	if e.status[q] == statusMatched {
		panic(fmt.Sprintf("core: matched pair (%d,%d) died", e.ci.U[q], e.ci.V[q]))
	}
	e.status[q] = statusDead
	e.finalized[q] = true
	u := e.ci.U[q]
	e.aliveCnt[u]--
	if e.aliveCnt[u] == 0 {
		e.abortedEmpty = true // M(Q,G) = ∅; run loop stops
	}
	unit := e.unitOf[u]
	if e.unitNontrivial[unit] {
		if e.unitLeaf[unit] && !e.fed[q] {
			e.outstandingDec(unit)
		}
		// No markDirty: deaths only shrink the unit's greatest fixpoint and
		// cannot produce new matches, so no refinement is needed (dead
		// pairs are excluded from the next refine anyway); re-refining per
		// death would cost O(unit product) per event.
	}
	e.finalQ = append(e.finalQ, q)
}

// finalizePair finalizes an alive (matched) pair: its relevant set can no
// longer grow, so l = h = δr from the next R phase on.
func (e *engine) finalizePair(q int32) {
	if e.finalized[q] {
		return
	}
	e.finalized[q] = true
	e.finalQ = append(e.finalQ, q)
}

// processMatch propagates a fresh match to candidate predecessors: their
// per-edge satisfied counters grow; trivial-unit parents whose every edge is
// satisfied become matches themselves, nontrivial parents' units are
// re-refined. Predecessors come straight off the reverse product CSR, whose
// RevSlot entries index the counter arrays directly.
func (e *engine) processMatch(q int32) {
	unit := e.unitOf[e.ci.U[q]]
	prod := e.prod
	for ei := prod.RevOff[q]; ei < prod.RevOff[q+1]; ei++ {
		qp := prod.Rev[ei]
		if e.status[qp] == statusDead {
			continue
		}
		slot := prod.RevSlot[ei]
		e.satCnt[slot]++
		if e.satCnt[slot] != 1 {
			continue
		}
		e.satEdges[qp]++
		up := int(e.ci.U[qp])
		upUnit := e.unitOf[up]
		if !e.unitNontrivial[upUnit] {
			if e.satEdges[qp] == e.needEdges[up] {
				e.becomeMatched(qp)
			}
		} else if upUnit != unit {
			// New outside support for a nontrivial unit.
			e.markDirty(upUnit)
		}
	}
}

// processFinalized propagates a finalization (death or alive-finalization)
// to candidate predecessors, resolving disjunctions lazily: an edge with no
// matched successor and no unfinalized successor left is false, killing the
// parent; a trivial parent with no unfinalized successors at all resolves
// completely (finalize if matched, die otherwise).
func (e *engine) processFinalized(q int32) {
	unit := e.unitOf[e.ci.U[q]]
	prod := e.prod
	for ei := prod.RevOff[q]; ei < prod.RevOff[q+1]; ei++ {
		qp := prod.Rev[ei]
		slot := prod.RevSlot[ei]
		up := int(e.ci.U[qp])
		upUnit := e.unitOf[up]
		e.unfinCnt[slot]--
		nontrivial := e.unitNontrivial[upUnit]
		if nontrivial && upUnit != unit {
			// Outstanding counts cross-unit successor finalizations of
			// all unit pairs, dead or alive (see the package documentation).
			e.outstandingDec(upUnit)
		}
		if e.status[qp] == statusDead {
			continue
		}
		e.unfinTotal[qp]--
		if e.unfinCnt[slot] == 0 && e.satCnt[slot] == 0 {
			e.die(qp)
			continue
		}
		if e.unfinTotal[qp] != 0 {
			continue
		}
		// All successors finalized: the pair resolves. For pairs of
		// cyclic units this is sound because drainEvents runs pending
		// unit refinements before finalization events, so any
		// gfp-supported pair is already matched by now; unfed leaves
		// stay pending (feeding may still match them) and pairs on
		// product cycles keep a positive unfinTotal until the unit
		// finalizes them together.
		if nontrivial && e.unitLeaf[upUnit] && !e.fed[qp] {
			continue
		}
		if e.status[qp] == statusMatched {
			e.finalizePair(qp)
		} else {
			e.die(qp)
		}
	}
}

// drainEvents processes match and finalization queues to quiescence,
// interleaving greatest-fixpoint refinement of dirty nontrivial units in
// ascending rank order (events only ever flow to units of strictly higher
// rank, so this converges).
func (e *engine) drainEvents() {
	for {
		switch {
		case len(e.matchQ) > 0:
			q := e.matchQ[len(e.matchQ)-1]
			e.matchQ = e.matchQ[:len(e.matchQ)-1]
			e.processMatch(q)
		case len(e.dirtyUnits) > 0 || len(e.finalQ) > 0:
			if len(e.dirtyUnits) == 0 {
				q := e.finalQ[len(e.finalQ)-1]
				e.finalQ = e.finalQ[:len(e.finalQ)-1]
				e.processFinalized(q)
				continue
			}
			// Lowest-rank dirty unit first.
			best := 0
			for i := 1; i < len(e.dirtyUnits); i++ {
				if e.unitRank[e.dirtyUnits[i]] < e.unitRank[e.dirtyUnits[best]] {
					best = i
				}
			}
			// Refinements run before finalization events so that every
			// gfp-supported pair is matched before per-pair resolution
			// can declare unmatched pairs dead.
			unit := e.dirtyUnits[best]
			e.dirtyUnits[best] = e.dirtyUnits[len(e.dirtyUnits)-1]
			e.dirtyUnits = e.dirtyUnits[:len(e.dirtyUnits)-1]
			e.unitDirty[unit] = false
			e.refineUnit(unit)
		default:
			return
		}
	}
}

// refineUnit computes the greatest fixpoint of the simulation condition
// restricted to one nontrivial unit of Q (the engine's SccProcess). Matched
// pairs stay fixed: outside support only grows, so they survive every later
// refinement, and satCnt already counts them as support. The variables are
// the unit's unknown pairs, in a leaf unit only the fed ones. Each variable
// slot counts its matched successors plus its successors that are variables
// (a cross-unit successor never is), and simulation.Cascade removes the
// variables with an empty slot until none is left; the survivors are
// matches. When the unit's outstanding work has hit zero the refinement is
// final and finalizes the matched pairs. The unknown pairs it leaves die by
// per-pair resolution (processFinalized) in the same drainEvents: every
// cross-unit successor is final by then, so the ones outside the fixpoint
// cannot support one another, and the deaths that empty their slots are
// still queued, because refinements run before finalization events.
func (e *engine) refineUnit(unit int32) {
	if e.unitFinalized[unit] {
		return
	}
	nodes, leaf, in, cnt := e.unitNodes[unit], e.unitLeaf[unit], e.refineIn, e.refineCnt
	for _, u := range nodes {
		lo, hi := e.ci.PairRange(int(u))
		for q := lo; q < hi; q++ {
			in[q] = e.status[q] == statusUnknown && (!leaf || e.fed[q])
		}
	}
	// Every slot is counted before the first removal, so the cascade
	// decrements exactly the counters that counted the pair it removes.
	dead := e.stack[:0]
	for _, u := range nodes {
		lo, hi := e.ci.PairRange(int(u))
		out := e.p.Out(int(u))
		for q := lo; q < hi; q++ {
			if !in[q] {
				continue
			}
			empty := false
			for j, uc := range out {
				s := e.base[q] + int32(j)
				c := e.satCnt[s]
				if e.unitOf[uc] == unit {
					for _, qc := range e.prod.SlotSuccs(q, j) {
						if in[qc] {
							c++
						}
					}
				}
				cnt[s] = c
				empty = empty || c == 0
			}
			if empty {
				dead = append(dead, q)
			}
		}
	}
	for _, q := range dead {
		in[q] = false
	}
	e.stack = simulation.Cascade(e.prod, in, cnt, dead)

	final := e.unitPendingFin[unit]
	if final {
		e.unitFinalized[unit] = true
		e.unitPendingFin[unit] = false
	}
	for _, u := range nodes {
		lo, hi := e.ci.PairRange(int(u))
		for q := lo; q < hi; q++ {
			if in[q] {
				in[q] = false // refineIn is all false between refinements
				e.becomeMatched(q)
			}
			if final && e.status[q] == statusMatched {
				e.finalizePair(q)
			}
		}
	}
}

// propagateRelevance runs the R phase of a batch. A pair's matched closure
// grows only through a new match it reaches, so only the batch's new tracked
// matches and their tracked matched ancestors can change; one walk up the
// reverse product collects them and simulation.SweepRelevant recomputes
// them, reading every other matched successor's set as stored. Untracked
// pairs never enter the region, so a batch costs only what the output sees.
func (e *engine) propagateRelevance() {
	region, stack := e.region[:0], e.stack[:0]
	enter := func(q int32) {
		if e.rlocal[q] == 0 && e.tracked[q] && e.status[q] == statusMatched {
			region = append(region, q)
			e.rlocal[q] = int32(len(region))
			stack = append(stack, q)
		}
	}
	prod := e.prod
	for _, q := range e.newRelM {
		if e.tracked[q] && len(prod.Succs(q)) == 0 {
			// R = ∅ for good: the parents read the empty set as stored.
			e.storeSet(q, nil, 0, 0, false)
			stack = append(stack, q)
			continue
		}
		enter(q)
	}
	e.newRelM = e.newRelM[:0]
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, qp := range prod.Rev[prod.RevOff[q]:prod.RevOff[q+1]] {
			enter(qp)
		}
	}
	if len(region) > 0 {
		simulation.SweepRelevant(prod, e.space, &e.work, region,
			func(q int32) (int32, bool) { return e.rlocal[q] - 1, e.rlocal[q] != 0 }, e.rwords, e.storeSet)
	}
	for _, q := range region {
		e.rlocal[q] = 0
	}
	e.region, e.stack = region, stack
}

// storeSet copies a relevant set the sweep finished into pair q's own
// storage, made on first use: its own allocation for an output pair (see
// engine.outSets), a slab block otherwise. The stored set is the pair's
// closure of an earlier phase, a subset of the new one, so copying the new
// set's span overwrites all of it.
func (e *engine) storeSet(q int32, w []uint64, lo, hi int32, _ bool) bool {
	dst := e.rwords(q)
	if dst == nil {
		if q >= e.uoLo && q < e.uoHi {
			set := e.space.NewSet()
			e.outSets[q-e.uoLo] = set
			dst = set.Words()
		} else {
			h := e.sets.Alloc()
			e.rslot[q] = h + 1
			dst = e.sets.At(h)
		}
	}
	if lo < hi {
		copy(dst[lo:hi], w[lo:hi])
	}
	return false
}
