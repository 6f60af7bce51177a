package core

import (
	"fmt"
	"strings"
	"testing"

	"divtopk/internal/gen"
)

// terminationCorpus runs the engine over mined DAG, cyclic and
// predicate-bearing patterns on a YouTube-like graph and renders, per run,
// the three Stats fields the termination check decides: how many batches
// were fed, whether Proposition 3 fired before the leaves ran out, and how
// many output matches had been discovered by then.
func terminationCorpus(t *testing.T) []string {
	t.Helper()
	g := gen.YouTubeLike(8000, 48000, 2)
	cache := NewBoundsCache(g, true)
	var out []string
	for i, p := range minedPatterns(t, g, 24, 9000) {
		if cyclic := i%2 == 1; p.IsDAG() == cyclic {
			t.Fatalf("pattern %d: cyclic=%v but IsDAG=%v", i, cyclic, p.IsDAG())
		}
		for _, k := range []int{1, 3, 10, 40} {
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
