package diversify

import (
	"reflect"
	"testing"

	"divtopk/internal/bitset"
	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/ranking"
)

// tiePool builds n matches with the given relevances and pairwise-disjoint
// relevant sets of matching sizes, so every pair at the same relevance
// level has identical F' (disjoint sets ⇒ distance 1 for all pairs): the
// selection is decided purely by the documented row-major tie-break.
func tiePool(relevances []int) ([]core.Match, []float64, ranking.DiversifyParams) {
	n := len(relevances)
	space := 0
	for _, r := range relevances {
		space += r
	}
	params := ranking.DiversifyParams{Lambda: 0.5, K: 6, Cuo: space}
	pool := make([]core.Match, n)
	normRel := make([]float64, n)
	next := 0
	for i, rel := range relevances {
		s := bitset.New(space)
		for j := 0; j < rel; j++ {
			s.Add(next)
			next++
		}
		pool[i] = core.Match{Node: graph.NodeID(i), Relevance: rel, Exact: true, R: s}
		normRel[i] = params.NormRel(float64(rel))
	}
	return pool, normRel, params
}

// poolSparse projects a pool's relevant sets the way TopKDivOpts does
// before handing them to bestPair.
func poolSparse(pool []core.Match) ([]sparseSet, []int) {
	sparse := make([]sparseSet, len(pool))
	counts := make([]int, len(pool))
	for i, m := range pool {
		sparse[i] = newSparseSet(m.R)
		if m.R != nil {
			counts[i] = m.R.Count()
		}
	}
	return sparse, counts
}

// TestBestPairRowMajorTieBreak asserts that on a pool where every pair has
// exactly the same F', bestPair returns the row-major-first pair, although
// its pruned scan visits anchors in descending relevance.
func TestBestPairRowMajorTieBreak(t *testing.T) {
	pool, normRel, params := tiePool([]int{2, 2, 2, 2, 2, 2, 2, 2})
	sparse, counts := poolSparse(pool)
	taken := make([]bool, len(pool))
	if i, j := bestPair(params, normRel, sparse, counts, taken); i != 0 || j != 1 {
		t.Fatalf("first pair = (%d,%d), want row-major (0,1)", i, j)
	}
	// With (0,1) taken, the next row-major tied pair is (2,3).
	taken[0], taken[1] = true, true
	if i, j := bestPair(params, normRel, sparse, counts, taken); i != 2 || j != 3 {
		t.Fatalf("second pair = (%d,%d), want (2,3)", i, j)
	}
}

// TestBestPairGreedySequence consumes the whole pool pair by pair — the
// greedy loop TopKDiv runs — on a pool engineered with two exact F' tie
// classes (high-relevance matches 0..3, low-relevance matches 4..7, all sets
// disjoint) and asserts the high class drains first, each class in
// row-major order.
func TestBestPairGreedySequence(t *testing.T) {
	pool, normRel, params := tiePool([]int{5, 5, 5, 5, 1, 1, 1, 1})
	sparse, counts := poolSparse(pool)
	taken := make([]bool, len(pool))
	var got [][2]int
	for {
		i, j := bestPair(params, normRel, sparse, counts, taken)
		if i < 0 {
			break
		}
		taken[i], taken[j] = true, true
		got = append(got, [2]int{i, j})
	}
	want := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("greedy pair sequence = %v, want %v", got, want)
	}
}
