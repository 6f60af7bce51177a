package core

import (
	"cmp"
	"math/rand"
	"slices"
)

// feeder hands out batches of unvisited leaf candidate pairs (the Sc sets of
// §4.1). The order is fixed up front by the strategy; pairs that died before
// being fed are skipped at hand-out time.
type feeder struct {
	pos     int
	round   int
	batches int
}

// init builds the feeding order (scratch.order) over the candidate pairs of
// the rank-0 query nodes, collected in pair order.
//
// Covering (the paper's optimized selection): leaf candidates that are
// children of candidates of rank-1 query nodes come first, ordered by how
// many such parents they cover (descending), so that the first batches are
// the "minimal set that includes all the children of those candidates of
// query nodes with rank 1" and productive matches appear early. Random (the
// nopt baselines): a seeded shuffle.
func (f *feeder) init(e *engine) {
	*f = feeder{batches: e.opts.numBatches()}
	order := e.order[:0]
	for u := 0; u < e.nq; u++ {
		if e.unitRank[e.unitOf[u]] != 0 {
			continue
		}
		lo, hi := e.ci.PairRange(u)
		for q := lo; q < hi; q++ {
			order = append(order, leafScore{q: q})
		}
	}
	e.order = order

	switch e.opts.Strategy {
	case StrategyRandom:
		rng := rand.New(rand.NewSource(e.opts.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	default: // StrategyCovering
		// A leaf pair's covering score is its number of reverse product
		// edges from rank-1 parents — read straight off the reverse CSR.
		// (score desc, pair asc) is a total order, so the sorted sequence
		// does not depend on the sorting algorithm.
		prod, rank, pairU := e.prod, e.an.Rank, e.ci.U
		for i := range order {
			q := order[i].q
			n := int32(0)
			for ei := prod.RevOff[q]; ei < prod.RevOff[q+1]; ei++ {
				if rank[pairU[prod.Rev[ei]]] == 1 {
					n++
				}
			}
			order[i].n = n
		}
		slices.SortFunc(order, func(a, b leafScore) int {
			if a.n != b.n {
				return cmp.Compare(b.n, a.n)
			}
			return cmp.Compare(a.q, b.q)
		})
	}
}

// next returns the next batch of not-yet-dead leaf pairs, or nil when
// exhausted; the slice is valid until the following call. Batch sizes grow
// geometrically: the first batches are small (fine-grained early-termination
// checks while a quick win is still possible), later ones cover
// exponentially more (so a run that must exhaust the leaves pays at most a
// logarithmic number of propagation rounds instead of NumBatches of them —
// each round re-propagates relevance deltas across the matched product
// graph).
func (f *feeder) next(e *engine) []int32 {
	order := e.order
	if f.pos >= len(order) {
		return nil
	}
	size := len(order) >> uint(f.batches-1-f.round)
	if f.round >= f.batches-1 {
		size = len(order)
	}
	if size < 1 {
		size = 1
	}
	f.round++
	batch := e.batch[:0]
	for f.pos < len(order) && len(batch) < size {
		q := order[f.pos].q
		f.pos++
		if e.status[q] == statusDead {
			continue
		}
		batch = append(batch, q)
	}
	e.batch = batch
	return batch
}

// done reports whether all leaf pairs have been handed out.
func (f *feeder) done(e *engine) bool { return f.pos >= len(e.order) }
