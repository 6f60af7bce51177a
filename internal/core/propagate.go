package core

import (
	"cmp"
	"fmt"
	"slices"

	"divtopk/internal/bitset"
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
// restricted to one nontrivial unit of Q (the engine's SccProcess): start
// from the active pairs whose cross-unit edges are all satisfied by known
// matches, then repeatedly delete pairs with an unsupported in-unit edge.
// Survivors are matches. Because outside support only grows, previously
// matched pairs always survive (monotonicity). When the unit's outstanding
// work has hit zero the refinement is final: survivors finalize, the rest
// die.
func (e *engine) refineUnit(unit int32) {
	if e.unitFinalized[unit] {
		return
	}
	final := e.unitPendingFin[unit]

	nodes := e.unitNodes[unit]
	// Dense per-query-node tables (patterns are tiny; maps here were pure
	// overhead in the refinement loop). Every table of this function lives
	// in the scratch and is rebuilt per call: refinements never nest.
	inUnit := e.rfInUnit
	clear(inUnit)
	for _, u := range nodes {
		inUnit[u] = true
	}

	// Local indexing of the unit's pairs: pair IDs of one query node are
	// contiguous, so a per-node offset table maps them to dense local IDs
	// (dead pairs keep a slot; they are simply never included).
	localBase := e.rfLocalBase
	totalLocal := int32(0)
	pairs := e.rfPairs[:0]
	for _, u := range nodes {
		lo, hi := e.ci.PairRange(int(u))
		localBase[u] = totalLocal - lo
		totalLocal += hi - lo
		for q := lo; q < hi; q++ {
			pairs = append(pairs, q)
		}
	}
	e.rfPairs = pairs
	localOf := func(q int32) int32 { return localBase[e.ci.U[q]] + q }

	e.rfInclude = zeroed(e.rfInclude, int(totalLocal))
	include := e.rfInclude
	for li, q := range pairs {
		if e.status[q] == statusDead {
			continue
		}
		u := int(e.ci.U[q])
		if e.unitLeaf[unit] && !e.fed[q] {
			continue
		}
		ok := true
		for j, uc := range e.p.Out(u) {
			if inUnit[uc] {
				continue
			}
			if e.satCnt[e.base[q]+int32(j)] == 0 {
				ok = false
				break
			}
		}
		include[li] = ok
	}

	// In-unit support counters per (local pair, in-unit edge slot) and the
	// reverse references needed by the removal worklist, all in flat slices.
	maxOut := 0
	for _, u := range nodes {
		if d := len(e.p.Out(int(u))); d > maxOut {
			maxOut = d
		}
	}
	e.rfInCnt = zeroed(e.rfInCnt, int(totalLocal)*maxOut)
	inCnt := e.rfInCnt
	// predHead[target] and predRef.next hold a preds index plus one; 0 ends
	// the list.
	e.rfPredHead = zeroed(e.rfPredHead, int(totalLocal))
	predHead := e.rfPredHead
	preds := e.rfPreds[:0]
	for li, q := range pairs {
		if !include[li] {
			continue
		}
		u := int(e.ci.U[q])
		for j, uc := range e.p.Out(u) {
			if !inUnit[uc] {
				continue
			}
			key := int32(li)*int32(maxOut) + int32(j)
			for _, qc := range e.prod.SlotSuccs(q, j) {
				lc := localOf(qc)
				if !include[lc] {
					continue
				}
				inCnt[key]++
				preds = append(preds, predRef{key: key, next: predHead[lc]})
				predHead[lc] = int32(len(preds))
			}
		}
	}
	e.rfPreds = preds

	// Worklist removal of unsupported pairs.
	removeQ := e.rfRemoveQ[:0]
	for li, q := range pairs {
		if !include[li] {
			continue
		}
		u := int(e.ci.U[q])
		for j, uc := range e.p.Out(u) {
			if inUnit[uc] && inCnt[int32(li)*int32(maxOut)+int32(j)] == 0 {
				include[li] = false
				removeQ = append(removeQ, int32(li))
				break
			}
		}
	}
	for len(removeQ) > 0 {
		lr := removeQ[len(removeQ)-1]
		removeQ = removeQ[:len(removeQ)-1]
		for ref := predHead[lr]; ref != 0; ref = preds[ref-1].next {
			key := preds[ref-1].key
			parent := key / int32(maxOut)
			if !include[parent] {
				continue
			}
			inCnt[key]--
			if inCnt[key] == 0 {
				include[parent] = false
				removeQ = append(removeQ, parent)
			}
		}
	}
	e.rfRemoveQ = removeQ

	// Survivors are matches; previously matched pairs must be among them.
	for li, q := range pairs {
		if e.status[q] == statusDead {
			continue
		}
		if include[li] {
			if e.status[q] != statusMatched {
				e.becomeMatched(q)
			}
		} else if e.status[q] == statusMatched {
			panic(fmt.Sprintf("core: refineUnit dropped matched pair (%d,%d)", e.ci.U[q], e.ci.V[q]))
		}
	}

	if final {
		e.unitFinalized[unit] = true
		e.unitPendingFin[unit] = false
		for li, q := range pairs {
			if e.status[q] == statusDead {
				continue
			}
			if include[li] {
				e.finalizePair(q)
			} else {
				e.die(q)
			}
		}
	}
}

// propagateRelevance runs the R phase of a batch: give the freshly matched
// tracked pairs their relevant sets, gathered from their matched successors,
// then push every set that grew up the (possibly cyclic) matched product
// graph until quiescence. Untracked pairs (no live output pair reaches them)
// are dropped up front: they never get a set, nor are they sorted, gathered
// for or forwarded to, so a batch costs only what the output can see.
func (e *engine) propagateRelevance() {
	e.newRelM = slices.DeleteFunc(e.newRelM, func(q int32) bool { return !e.tracked[q] })
	if len(e.newRelM) == 0 {
		return
	}
	// Children first (ascending unit rank) to minimize re-propagation.
	slices.SortFunc(e.newRelM, func(a, b int32) int {
		ra := e.unitRank[e.unitOf[e.ci.U[a]]]
		rb := e.unitRank[e.unitOf[e.ci.U[b]]]
		if ra != rb {
			return cmp.Compare(ra, rb)
		}
		return cmp.Compare(a, b)
	})

	prod := e.prod
	for _, q := range e.newRelM {
		// Output-node sets escape through Result.Match.R and may be retained
		// indefinitely (the serving layer caches Results), so each is its
		// own allocation; interior sets die with the run and are carved
		// from the scratch's slab.
		var s []uint64
		if q >= e.uoLo && q < e.uoHi {
			set := e.space.NewSet()
			e.outSets[q-e.uoLo] = set
			s = set.Words()
		} else {
			h := e.sets.Alloc()
			e.rslot[q] = h + 1
			s = e.sets.At(h)
		}
		for _, qc := range prod.Succs(q) {
			if e.status[qc] != statusMatched {
				continue
			}
			// qc == q (a product self-loop) reads the set being built: a
			// union with itself, as harmless as it is useless.
			if rs := e.rwords(qc); rs != nil {
				bitset.UnionWords(s, rs)
			}
			if idx := e.space.Index(e.ci.V[qc]); idx >= 0 {
				bitset.AddBit(s, int(idx))
			}
		}
		// A fresh match is new to all its parents.
		e.rEnqueue(q)
	}
	e.newRelM = e.newRelM[:0]

	for len(e.rQueue) > 0 {
		q := e.rQueue[len(e.rQueue)-1]
		e.rQueue = e.rQueue[:len(e.rQueue)-1]
		e.rInQueue[q] = false
		src := e.rwords(q)
		selfIdx := e.space.Index(e.ci.V[q])
		for ei := prod.RevOff[q]; ei < prod.RevOff[q+1]; ei++ {
			qp := prod.Rev[ei]
			if !e.tracked[qp] || e.status[qp] != statusMatched {
				continue
			}
			dst := e.rwords(qp)
			if dst == nil {
				continue // initialized later this phase; init gathers src
			}
			changed := bitset.UnionWords(dst, src)
			if selfIdx >= 0 && bitset.AddBit(dst, int(selfIdx)) {
				changed = true
			}
			if changed {
				e.rEnqueue(qp)
			}
		}
	}
}

// rEnqueue schedules a forward of q's set to its parents.
func (e *engine) rEnqueue(q int32) {
	if !e.rInQueue[q] {
		e.rInQueue[q] = true
		e.rQueue = append(e.rQueue, q)
	}
}
