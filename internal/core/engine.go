package core

import (
	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// Pair status values.
const (
	statusUnknown uint8 = iota
	statusMatched
	statusDead
)

// engine is the incremental propagation machine shared by TopK (the paper's
// TopK and TopKDAG), their nopt variants and TopKDH. The package
// documentation describes the architecture and argues the soundness of each
// counter.
//
// Per candidate pair (u,v) it tracks:
//
//   - status ∈ {unknown, matched, dead} and a finalized flag. Matched pairs
//     never die; dead pairs are finalized by definition.
//   - satCnt[slot]: matched successors per outgoing query edge; the pair's
//     boolean formula Xv = ∧_j ∨_i X_vi is true as soon as every edge has
//     satCnt > 0 (counted by satEdges).
//   - unfinCnt[slot]: not-yet-finalized successors per edge. An edge whose
//     unfinCnt reaches 0 with satCnt = 0 resolves the disjunction to false
//     and kills the pair — the lazy false-resolution of the paper's formula
//     semantics (no eager refinement at init).
//   - the partial relevant set over the relevance universe (rwords), grown
//     monotonically toward R(u,v); maintained only for the pairs a live
//     output pair reaches (tracked).
//
// Query nodes are grouped into units (the SCCs of Q); nontrivial units are
// evaluated by greatest-fixpoint refinement (refineUnit), the engine's
// equivalent of the paper's SccProcess.
//
// All mutable per-run arrays live in the embedded pooled scratch; the engine
// value itself, the output-node sets and the Result are the only per-run
// allocations.
type engine struct {
	g     *graph.Graph
	p     *pattern.Pattern
	an    *pattern.Analysis
	ci    *simulation.CandidateIndex
	prod  *simulation.Product // materialized product CSR; all propagation walks it
	space *simulation.RelSpace
	opts  Options
	k     int
	uo    int
	nq    int

	*scratch

	// base is the first counter slot of each pair (aliases prod.Base).
	base []int32

	// Units = SCCs of Q.
	nUnits         int
	unitNodes      [][]int32
	unitRank       []int32
	unitNontrivial []bool

	// Output-node candidates are the pairs [uoLo, uoHi). outSets holds their
	// partial relevant sets (indexed by pair - uoLo), each its own
	// allocation: they escape through Result.Match.R and PairHandle.R, and
	// the serving layer caches Results, so they must neither alias pooled
	// memory nor pin a chunk of interior sets past the run.
	uoLo, uoHi int32
	outSets    []*bitset.Set

	handles      []PairHandle // the hook's view of the current batch
	feeder       feeder
	stats        Stats
	abortedEmpty bool
}

// newEngine builds and initializes the engine, running the init-time
// finalization cascade (empty disjunctions). When some query node has no
// candidates at all (G cannot match Q) the engine comes back with
// abortedEmpty set and no scratch.
func newEngine(g *graph.Graph, p *pattern.Pattern, k int, opts Options) (*engine, error) {
	if err := validateInputs(g, k); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}

	e := &engine{
		g: g, p: p, opts: opts, k: k,
		uo: p.Output(), nq: p.NumNodes(),
	}
	e.an = pattern.Analyze(p)
	if opts.Prebuilt != nil && opts.Prebuilt.CI != nil {
		e.ci = opts.Prebuilt.CI
	} else {
		e.ci = simulation.BuildCandidates(g, p)
	}
	e.space = simulation.BuildRelSpace(g, p, e.ci, e.an)
	e.stats.PairsTotal = e.ci.NumPairs()
	e.uoLo, e.uoHi = e.ci.PairRange(e.uo)
	e.stats.CandidatesOfOutput = int(e.uoHi - e.uoLo)

	for u := 0; u < e.nq; u++ {
		if len(e.ci.Lists[u]) == 0 {
			// Some query node has no candidates: M(Q,G) = ∅.
			e.abortedEmpty = true
			return e, nil
		}
	}

	if opts.Prebuilt != nil && opts.Prebuilt.Prod != nil {
		// Shared read-only: the engine aliases prod.Base but keeps its own
		// counters, and propagation never writes product arrays.
		e.prod = opts.Prebuilt.Prod
	} else {
		e.prod = simulation.BuildProduct(g, p, e.ci, 0)
	}
	// The counter layout is exactly the product's slot layout: one slot per
	// (pair, outgoing query edge), so the arrays share prod.Base and the
	// reverse CSR's absolute slots index them directly.
	e.base = e.prod.Base
	total := e.ci.NumPairs()
	e.nUnits = e.an.Cond.NumComps
	e.scratch = acquireScratch()
	e.scratch.reset(e.nq, e.nUnits, total, int(e.base[total]), int(e.uoHi-e.uoLo), e.space.Size())
	e.outSets = make([]*bitset.Set, e.uoHi-e.uoLo)

	e.initPatternStructure()
	e.initUnits()
	e.initPairState()
	computeUpperBounds(e.upper, e.prod, e.an, e.space, opts)
	if opts.UpperOverride != nil {
		for i := e.uoLo; i < e.uoHi; i++ {
			if h, ok := opts.UpperOverride[e.ci.V[i]]; ok {
				e.upper[i-e.uoLo] = h
			}
		}
	}

	e.feeder.init(e)

	// Resolve init-time deaths (empty disjunctions) to quiescence.
	e.drainEvents()
	e.markTracked()
	return e, nil
}

// markTracked marks the pairs that get relevant sets: those a live output
// pair reaches through live pairs once the init-time deaths are resolved.
// Matched pairs never die, so every matched path from a matched output pair
// stays inside the marked region, and the output sets come out as if every
// pair were tracked (see the package documentation). The DFS stack borrows
// rQueue, which stays empty until the first relevance phase.
func (e *engine) markTracked() {
	stack := e.rQueue[:0]
	for q := e.uoLo; q < e.uoHi; q++ {
		if e.status[q] != statusDead {
			e.tracked[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, qc := range e.prod.Succs(q) {
			if !e.tracked[qc] && e.status[qc] != statusDead {
				e.tracked[qc] = true
				stack = append(stack, qc)
			}
		}
	}
	e.rQueue = stack
}

// release returns the run's scratch to the pool. The Result is already
// assembled and references none of it.
func (e *engine) release() {
	s := e.scratch
	if s == nil {
		return
	}
	e.scratch = nil
	releaseScratch(s)
}

// rwords returns pair q's partial relevant set as raw words, nil while it
// has none: an output-node set's backing words, or the interior pair's slab
// block.
func (e *engine) rwords(q int32) []uint64 {
	if q >= e.uoLo && q < e.uoHi {
		if s := e.outSets[q-e.uoLo]; s != nil {
			return s.Words()
		}
		return nil
	}
	if h := e.rslot[q]; h != 0 {
		return e.sets.At(h - 1)
	}
	return nil
}

func (e *engine) initPatternStructure() {
	// No slot tables here: the reverse product CSR carries each edge's
	// absolute counter slot (prod.RevSlot).
	for u := 0; u < e.nq; u++ {
		e.needEdges[u] = int32(len(e.p.Out(u)))
		e.aliveCnt[u] = int32(len(e.ci.Lists[u]))
	}
}

func (e *engine) initUnits() {
	cond := e.an.Cond
	e.unitRank = cond.Rank
	e.unitNontrivial = cond.Nontrivial

	// unitNodes: one backing array, sliced per unit in node order.
	nodes := make([]int32, 0, e.nq)
	e.unitNodes = make([][]int32, e.nUnits)
	for c := range e.unitNodes {
		start := len(nodes)
		for u := 0; u < e.nq; u++ {
			if cond.Comp[u] == int32(c) {
				e.unitOf[u] = int32(c)
				nodes = append(nodes, int32(u))
			}
		}
		e.unitNodes[c] = nodes[start:len(nodes):len(nodes)]
		e.unitLeaf[c] = cond.Rank[c] == 0
	}
}

func (e *engine) initPairState() {
	total := e.ci.NumPairs()

	// unfinCnt init: candidate successors per (pair, edge) — the product
	// slot lengths; empty disjunctions die. Cross-unit counts feed
	// unitOutstanding. Counters must be fully accumulated before any death
	// runs — a death decrements unitOutstanding and could otherwise observe
	// a half-built counter and finalize a unit prematurely — hence the two
	// passes (the second finds the empty edges again in the product).
	for q := int32(0); q < int32(total); q++ {
		u := int(e.ci.U[q])
		unit := e.unitOf[u]
		for j, uc := range e.p.Out(u) {
			c := e.prod.SlotLen(e.base[q] + int32(j))
			e.unfinCnt[e.base[q]+int32(j)] = c
			e.unfinTotal[q] += c
			if e.unitNontrivial[unit] && e.unitOf[uc] != unit {
				e.unitOutstanding[unit] += int64(c)
			}
		}
		if e.unitNontrivial[unit] && e.unitLeaf[unit] {
			e.unitOutstanding[unit]++ // pending feed of this pair
		}
	}
	for q := int32(0); q < int32(total); q++ {
		for s := e.base[q]; s < e.base[q+1]; s++ {
			if e.prod.SlotLen(s) == 0 {
				e.die(q)
				break
			}
		}
	}
}

// markDirty schedules a nontrivial unit for (re-)refinement.
func (e *engine) markDirty(unit int32) {
	if !e.unitDirty[unit] && !e.unitFinalized[unit] {
		e.unitDirty[unit] = true
		e.dirtyUnits = append(e.dirtyUnits, unit)
	}
}

// outstandingDec decrements a unit's pending-work counter and schedules the
// final refinement when it hits zero.
func (e *engine) outstandingDec(unit int32) {
	e.unitOutstanding[unit]--
	if e.unitOutstanding[unit] == 0 && !e.unitFinalized[unit] {
		e.unitPendingFin[unit] = true
		e.markDirty(unit)
		// markDirty refuses finalized units but unitPendingFin forces a
		// last refinement even if the dirty flag was already set.
		if !e.unitDirty[unit] {
			e.unitDirty[unit] = true
			e.dirtyUnits = append(e.dirtyUnits, unit)
		}
	}
}
