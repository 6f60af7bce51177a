// Package diversify implements the diversified top-k matching algorithms of
// §5: TopKDiv, the 2-approximation that evaluates the whole match set and
// greedily assembles k/2 pairs maximizing the pair objective F' (a reduction
// to maximum dispersion [Hassin-Rubinstein-Tamir]); and TopKDH, the
// early-termination heuristic (the paper's TopKDAGDH on a DAG pattern) that
// rides the incremental engine of internal/core and greedily swaps matches to
// maximize the partial objective F” as they are discovered.
package diversify

import (
	"math/bits"
	"sort"

	"divtopk/internal/bitset"
	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/parallel"
	"divtopk/internal/pattern"
	"divtopk/internal/ranking"
)

// Result is the outcome of a diversified top-k computation.
type Result struct {
	// Matches is the selected k-set (order: selection order, not ranked —
	// F is a set objective).
	Matches []core.Match
	// F is the diversification objective value of Matches under the exact
	// relevant sets available to the algorithm at termination.
	F float64
	// Params echoes λ, k and C_uo used.
	Params ranking.DiversifyParams
	// Stats carries the work counters of the underlying evaluation.
	Stats core.Stats
	// GlobalMatch reports whether G matches Q.
	GlobalMatch bool
}

// TopKDiv is the 2-approximation of §5.1. It computes all matches of the
// output node with their exact relevant sets (like the baseline Match),
// normalizes relevance by C_uo, and then greedily picks ⌊k/2⌋ disjoint pairs
// maximizing F'(v1,v2); for odd k a final single match maximizing the F gain
// is added. The returned set S satisfies F(S) ≥ F(S*)/2.
func TopKDiv(g *graph.Graph, p *pattern.Pattern, k int, lambda float64) (*Result, error) {
	return TopKDivOpts(g, p, k, lambda, core.Options{})
}

// TopKDivOpts is TopKDiv with engine options; only Options.Parallelism is
// consulted. It parallelizes the two measured hot spots — candidate
// computation inside the find-all baseline, and the O(|M|²) greedy pair
// scan, which fans out by row with a per-worker argmax and a deterministic
// lexicographic reduce — so every worker count selects exactly the pairs the
// sequential scan selects.
func TopKDivOpts(g *graph.Graph, p *pattern.Pattern, k int, lambda float64, opts core.Options) (*Result, error) {
	params := ranking.DiversifyParams{Lambda: lambda, K: k}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	base, err := core.MatchBaselineOpts(g, p, k, true, opts)
	if err != nil {
		return nil, err
	}
	return TopKDivFromBase(base, k, lambda, opts)
}

// TopKDivFromBase is the greedy-selection half of TopKDiv: it re-ranks an
// already evaluated find-all result (MatchBaselineOpts with keepSets=true).
// The matcher's warm result cache uses it to refresh a diversified entry
// after a delta advanced its match pool, skipping the evaluation half.
// Only Options.Parallelism is consulted; base is read-only.
func TopKDivFromBase(base *core.Result, k int, lambda float64, opts core.Options) (*Result, error) {
	params := ranking.DiversifyParams{Lambda: lambda, K: k}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params.Cuo = base.Cuo
	res := &Result{Params: params, Stats: base.Stats, GlobalMatch: base.GlobalMatch}
	if !base.GlobalMatch {
		return res, nil
	}

	pool := base.All
	if len(pool) <= k {
		res.Matches = append(res.Matches, pool...)
		res.F = evalF(params, res.Matches)
		return res, nil
	}

	normRel := make([]float64, len(pool))
	sparse := make([]sparseSet, len(pool))
	counts := make([]int, len(pool))
	for i, m := range pool {
		normRel[i] = params.NormRel(float64(m.Relevance))
		sparse[i] = newSparseSet(m.R)
		if m.R != nil {
			counts[i] = m.R.Count()
		}
	}
	taken := make([]bool, len(pool))
	var picked []int

	// ⌊k/2⌋ greedy pair selections by F'.
	workers := opts.Workers()
	for len(picked)+1 < k {
		bi, bj := bestPair(params, normRel, sparse, counts, taken, workers)
		if bi < 0 {
			break
		}
		taken[bi], taken[bj] = true, true
		picked = append(picked, bi, bj)
	}

	// Odd k: add the single match maximizing F(S ∪ {v}).
	if len(picked) < k {
		cur := make([]core.Match, len(picked))
		for i, idx := range picked {
			cur[i] = pool[idx]
		}
		bi, best := -1, -1.0
		for i := 0; i < len(pool); i++ {
			if taken[i] {
				continue
			}
			f := evalF(params, append(cur[:len(cur):len(cur)], pool[i]))
			if f > best {
				best, bi = f, i
			}
		}
		if bi >= 0 {
			taken[bi] = true
			picked = append(picked, bi)
		}
	}

	for _, idx := range picked {
		res.Matches = append(res.Matches, pool[idx])
	}
	res.F = evalF(params, res.Matches)
	return res, nil
}

// pairArg is one worker's argmax over its stripe of the pair scan.
type pairArg struct {
	i, j int
	f    float64
}

// better reports whether candidate (i, j, f) beats the current best under
// the scan's total order: larger F' first, then lexicographically smaller
// (i, j). This is exactly the pair a sequential row-major scan with strict
// improvement returns (the first pair, in row-major order, among those
// attaining the maximum), expressed as an order so any iteration order —
// worker stripes, the descending-relevance pruning order below — yields the
// same winner.
func (b pairArg) better(i, j int, f float64) bool {
	return f > b.f || (f == b.f && (i < b.i || (i == b.i && j < b.j)))
}

// sparseSet is a bitset projected to its nonzero words: relevant sets are
// sparse in the relevance universe (|R| bits out of |space|), so pairwise
// intersection counts merge two short word lists instead of scanning the
// full width. The greedy pair scan evaluates O(|M|²) distances; this
// projection is where TopKDiv's constant factor lives.
type sparseSet struct {
	idx   []int32
	words []uint64
}

func newSparseSet(s *bitset.Set) sparseSet {
	if s == nil {
		return sparseSet{}
	}
	var sp sparseSet
	s.ForEachWord(func(i int, w uint64) {
		sp.idx = append(sp.idx, int32(i))
		sp.words = append(sp.words, w)
	})
	return sp
}

// intersectCount merges the two nonzero-word lists.
func (a sparseSet) intersectCount(b sparseSet) int {
	i, j, c := 0, 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		ai, bj := a.idx[i], b.idx[j]
		switch {
		case ai < bj:
			i++
		case ai > bj:
			j++
		default:
			c += bits.OnesCount64(a.words[i] & b.words[j])
			i++
			j++
		}
	}
	return c
}

// sparseDistance is δd over sparse sets with precomputed cardinalities:
// 1 − |∩| / (c1 + c2 − |∩|), the same integers (and therefore the same
// float64) as ranking.Distance on the dense sets.
func sparseDistance(a, b sparseSet, ca, cb int) float64 {
	inter := a.intersectCount(b)
	union := ca + cb - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// bestPair returns the untaken pair (i, j), i < j, maximizing F', resolving
// ties to the first pair in row-major order — the pair a sequential
// row-major scan returns. The scan iterates candidates in descending
// normalized relevance and cuts each anchor's partner loop as soon as the
// F' upper bound (distance = 1, the metric's maximum) drops below the
// current best, which is sound because F' is monotone in both relevance and
// distance; anchors are dealt to workers round-robin and the reduce applies
// the same explicit total order, so every worker count selects the same
// pair. Returns (-1, -1) when fewer than two untaken matches remain.
func bestPair(params ranking.DiversifyParams, normRel []float64, sparse []sparseSet, counts []int, taken []bool, workers int) (int, int) {
	order := make([]int, 0, len(normRel))
	for i := range normRel {
		if !taken[i] {
			order = append(order, i)
		}
	}
	n := len(order)
	if n < 2 {
		return -1, -1
	}
	sort.Slice(order, func(x, y int) bool {
		if normRel[order[x]] != normRel[order[y]] {
			return normRel[order[x]] > normRel[order[y]]
		}
		return order[x] < order[y]
	})
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	args := make([]pairArg, workers)
	parallel.ForEach(workers, workers, func(w int) {
		best := pairArg{i: -1, j: -1, f: -1.0}
		for a := w; a < n; a += workers {
			pi := order[a]
			ri := normRel[pi]
			for b := a + 1; b < n; b++ {
				pj := order[b]
				rj := normRel[pj]
				// Partners come in non-increasing relevance, so once even a
				// distance-1 partner cannot beat the best, none can.
				if params.FPrime(ri, rj, 1) < best.f {
					break
				}
				f := params.FPrime(ri, rj, sparseDistance(sparse[pi], sparse[pj], counts[pi], counts[pj]))
				lo, hi := pi, pj
				if lo > hi {
					lo, hi = hi, lo
				}
				if best.better(lo, hi, f) {
					best = pairArg{i: lo, j: hi, f: f}
				}
			}
		}
		args[w] = best
	})
	win := pairArg{i: -1, j: -1, f: -1.0}
	for _, a := range args {
		if a.i >= 0 && win.better(a.i, a.j, a.f) {
			win = a
		}
	}
	return win.i, win.j
}

// evalF evaluates the diversification function F on a match slice using
// exact set relevance and Jaccard distances.
func evalF(params ranking.DiversifyParams, ms []core.Match) float64 {
	sets := make([]*bitset.Set, len(ms))
	for i, m := range ms {
		sets[i] = m.R
	}
	return params.FSets(sets)
}

// BruteForceBest enumerates every k-subset of the pool and returns the
// maximum F value. Exponential; used by tests to check the approximation
// ratio and by tiny interactive queries.
func BruteForceBest(params ranking.DiversifyParams, pool []core.Match, k int) float64 {
	if k > len(pool) {
		k = len(pool)
	}
	best := -1.0
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sel := make([]core.Match, k)
			for i, j := range idx {
				sel[i] = pool[j]
			}
			if f := evalF(params, sel); f > best {
				best = f
			}
			return
		}
		for i := start; i <= len(pool)-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}
