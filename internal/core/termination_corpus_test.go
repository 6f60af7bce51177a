package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"divtopk/internal/gen"
	"divtopk/internal/graph"
)

// terminationCorpus runs the engine over mined DAG, cyclic and
// predicate-bearing patterns on a YouTube-like graph and renders, per run,
// the three Stats fields the termination check decides: how many batches
// were fed, whether Proposition 3 fired before the leaves ran out, and how
// many output matches had been discovered by then. It also holds every run's
// answer to the find-all baseline of its pattern: each returned node is a
// match with Relevance ≤ δr ≤ Upper, and the multiset of their exact δr is
// the baseline's top k. No facade route runs the engine's top-k, so this is
// what keeps it correct on mined patterns.
func terminationCorpus(t *testing.T) []string {
	t.Helper()
	g := gen.YouTubeLike(8000, 48000, 2)
	cache := NewBoundsCache(g, true)
	var out []string
	for i, p := range minedPatterns(t, g, 24, 9000) {
		if cyclic := i%2 == 1; p.IsDAG() == cyclic {
			t.Fatalf("pattern %d: cyclic=%v but IsDAG=%v", i, cyclic, p.IsDAG())
		}
		base, err := MatchBaseline(g, p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		exact := make(map[graph.NodeID]int, len(base.All))
		for _, m := range base.All {
			exact[m.Node] = m.Relevance
		}
		for _, k := range []int{1, 3, 10, 40} {
			var best []int
			for _, m := range base.All[:min(k, len(base.All))] {
				best = append(best, m.Relevance)
			}
			for _, opts := range []Options{
				{},
				{Bounds: BoundLabelCount, Cache: cache},
				{Bounds: BoundLabelCount, Cache: cache, NumBatches: 40},
				{Strategy: StrategyRandom, Seed: int64(i)},
			} {
				res, err := TopK(g, p, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				var mine []int
				for _, m := range res.Matches {
					d, ok := exact[m.Node]
					if !ok || m.Relevance > d || d > m.Upper {
						t.Fatalf("pattern %d k=%d %+v: node %d (match %v) reports [%d, %d] around δr %d", i, k, opts, m.Node, ok, m.Relevance, m.Upper, d)
					}
					mine = append(mine, d)
				}
				slices.SortFunc(mine, func(a, b int) int { return b - a })
				if !slices.Equal(mine, best) {
					t.Fatalf("pattern %d k=%d %+v: exact δr of the engine's top-k %v, the baseline's top k %v", i, k, opts, mine, best)
				}
				out = append(out, fmt.Sprintf("%d/%v/%d", res.Stats.Batches, res.Stats.EarlyTerminated, res.Stats.MatchesFound))
			}
		}
	}
	return out
}

// TestTerminationCorpusPinned holds checkTermination's bounded selection to
// the decisions the sort-based check made at the commit before it was
// replaced (the golden table was printed by that commit): the same batch
// count, the same early-termination verdict and the same examined-match
// count on every run of the corpus.
func TestTerminationCorpusPinned(t *testing.T) {
	got := terminationCorpus(t)
	if len(got) != len(terminationGolden) {
		t.Fatalf("corpus has %d runs, golden table %d:\n%q", len(got), len(terminationGolden), got)
	}
	early := 0
	for i := range got {
		if got[i] != terminationGolden[i] {
			t.Errorf("run %d: batches/early/matches = %s, pinned %s", i, got[i], terminationGolden[i])
		}
		if strings.Contains(got[i], "/true/") {
			early++
		}
	}
	if early == 0 || early == len(got) {
		t.Fatalf("corpus does not discriminate: %d of %d runs terminated early", early, len(got))
	}
}
