package core

import (
	"sync"
	"sync/atomic"

	"divtopk/internal/bitset"
)

// scratch is the working memory of one engine run: every per-pair, per-slot
// and per-unit array (the refinement's variable flags and slot counters
// among them), every event queue, the feeder's order, the slab the interior
// relevant sets are carved from and the one the relevance sweeps carve their
// working sets from. A run takes one with acquireScratch in newEngine and
// returns it when TopK returns, so a steady stream of queries allocates none
// of this (it was ≈ 3 MB of a 4 MB query on a 15k-node graph). The lifecycle
// rules are in the package documentation; the short form is that no backing
// array here holds a pointer and nothing here is reachable from a Result.
//
// reset re-lengths and clears exactly the prefix a run uses, so the contents
// a previous run (or a test's poisoning) left behind are never read.
type scratch struct {
	// Per query node.
	needEdges []int32 // number of outgoing query edges
	matchCnt  []int32 // matched pairs per query node (global-match check)
	aliveCnt  []int32 // non-dead pairs per query node (emptiness abort)
	unitOf    []int32 // query node -> unit

	// Per unit (SCC of Q).
	unitLeaf        []bool
	unitOutstanding []int64 // pending cross-unit finalizations + unfed leaf pairs
	unitDirty       []bool
	unitPendingFin  []bool
	unitFinalized   []bool
	dirtyUnits      []int32

	// Per pair.
	status    []uint8
	finalized []bool
	fed       []bool
	satEdges  []int32
	// unfinTotal is the total of unfinalized successors (all child edges,
	// in-unit included). Drives per-pair finalization; pairs on product
	// cycles never drain it pairwise and are resolved by unit finalization.
	unfinTotal []int32
	// tracked marks the pairs a live output pair reaches once the init-time
	// deaths are resolved (engine.markTracked): only these ever hold a
	// relevant set.
	tracked []bool
	// rslot names the partial relevant set of an interior (non-output)
	// pair: its slab handle plus one, 0 while the pair has none.
	rslot []int32

	// Per (pair, child edge) slot.
	satCnt   []int32
	unfinCnt []int32

	// Per output-node candidate (indexed by pair - uoLo): the upper bounds,
	// the lower bounds of the current termination check, and which matches
	// were already surfaced to Options.Hook.
	upper        []int32
	lower        []int32
	hookReported []bool

	// Event queues.
	matchQ  []int32
	finalQ  []int32 // finalization events (deaths included)
	newRelM []int32 // newly matched pairs, for the R phase

	// The R phase's region in discovery order, each pair's index there plus
	// one (0 outside it), and the DFS stack of its walk and of markTracked,
	// which is also refineUnit's kill queue.
	region []int32
	rlocal []int32
	stack  []int32

	// Feeder: the leaf order, the batch handed out last, and the covering
	// sort's buffers (per-leaf scores, per-score start positions, and the
	// order it is built from, swapped with order).
	order      []int32
	batch      []int32
	leafScore  []int32
	scoreStart []int32
	orderBuf   []int32

	// checkTermination's bounded selection of the k best lower bounds.
	sel []cand

	// refineUnit's variables (per pair, all false between refinements) and
	// their slot counters (per slot, written before they are read).
	refineIn  []bool
	refineCnt []int32

	// sets backs the relevant sets of interior pairs. Output-node sets are
	// allocated individually instead (engine.outSets): they escape through
	// Result.Match.R into the serving layer's result cache.
	sets bitset.Slab
	// work backs the working sets of the R phase's sweeps; each
	// simulation.SweepRelevant call resets it on entry.
	work bitset.Slab
}

// cand is an output pair with its lower bound.
type cand struct{ q, l int32 }

// keptScratch holds one released scratch for good; scratchPool takes the
// ones released while that slot is full. A sync.Pool alone frees what sat
// idle through two collections, and a daemon serving a small graph collects
// every few queries: between two engine runs a find-all query or an update
// allocates enough for that, so one run in ten rebuilt its 3 MB of scratch,
// which ones depending on where the collections fell. With the slot a
// sequential stream of runs always finds its scratch; concurrent runs share
// the pool as before and the collector still reclaims what a burst left.
var (
	keptScratch atomic.Pointer[scratch]
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
)

func acquireScratch() *scratch {
	if s := keptScratch.Swap(nil); s != nil {
		return s
	}
	return scratchPool.Get().(*scratch)
}

func releaseScratch(s *scratch) {
	if poisonOnRelease != nil {
		poisonOnRelease(s)
	}
	if !keptScratch.CompareAndSwap(nil, s) {
		scratchPool.Put(s)
	}
}

// poisonOnRelease, when set (tests only), sees every scratch on its way back
// to the pool.
var poisonOnRelease func(*scratch)

// zeroed returns buf re-lengthed to n zero elements, reallocating (with some
// headroom, so a run of growing inputs settles quickly) only when it is too
// short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset sizes the scratch for a run over nq query nodes, nUnits units, pairs
// candidate pairs with slots counter slots, outputs candidates of the output
// node and a relevance universe of bits elements.
func (s *scratch) reset(nq, nUnits, pairs, slots, outputs, bits int) {
	s.needEdges = zeroed(s.needEdges, nq)
	s.matchCnt = zeroed(s.matchCnt, nq)
	s.aliveCnt = zeroed(s.aliveCnt, nq)
	s.unitOf = zeroed(s.unitOf, nq)

	s.unitLeaf = zeroed(s.unitLeaf, nUnits)
	s.unitOutstanding = zeroed(s.unitOutstanding, nUnits)
	s.unitDirty = zeroed(s.unitDirty, nUnits)
	s.unitPendingFin = zeroed(s.unitPendingFin, nUnits)
	s.unitFinalized = zeroed(s.unitFinalized, nUnits)

	s.status = zeroed(s.status, pairs)
	s.finalized = zeroed(s.finalized, pairs)
	s.fed = zeroed(s.fed, pairs)
	s.satEdges = zeroed(s.satEdges, pairs)
	s.unfinTotal = zeroed(s.unfinTotal, pairs)
	s.tracked = zeroed(s.tracked, pairs)
	s.rslot = zeroed(s.rslot, pairs)
	s.rlocal = zeroed(s.rlocal, pairs)
	s.refineIn = zeroed(s.refineIn, pairs)

	s.satCnt = zeroed(s.satCnt, slots)
	s.unfinCnt = zeroed(s.unfinCnt, slots)
	s.refineCnt = zeroed(s.refineCnt, slots)

	s.upper = zeroed(s.upper, outputs)
	s.lower = zeroed(s.lower, outputs)
	s.hookReported = zeroed(s.hookReported, outputs)

	s.dirtyUnits = s.dirtyUnits[:0]
	s.matchQ = s.matchQ[:0]
	s.finalQ = s.finalQ[:0]
	s.newRelM = s.newRelM[:0]
	s.order = s.order[:0]
	s.batch = s.batch[:0]
	s.sel = s.sel[:0]
	s.sets.Reset(bits)
}
