package diversify

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/oracle"
)

// serializeMatches renders a match slice byte-exactly: node, bounds,
// exactness and the full relevant set of every match. Two results with equal
// serializations are indistinguishable to any caller.
func serializeMatches(ms []core.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%d rel=%d up=%d exact=%v", m.Node, m.Relevance, m.Upper, m.Exact)
		if m.R != nil {
			fmt.Fprintf(&b, " R=%s", m.R.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func serializeBaseline(r *core.Result) string {
	return fmt.Sprintf("global=%v cuo=%d found=%d\nALL:\n%sTOP:\n%s",
		r.GlobalMatch, r.Cuo, r.Stats.MatchesFound, serializeMatches(r.All), serializeMatches(r.Matches))
}

func serializeDiv(r *Result) string {
	return fmt.Sprintf("global=%v f=%.17g cuo=%d\n%s",
		r.GlobalMatch, r.F, r.Params.Cuo, serializeMatches(r.Matches))
}

// TestKernelOracleProperty is the referee of the product-CSR refactor: over
// the generator graphs with seeds 1..20, the find-all baseline and TopKDiv
// must produce byte-identical output under the new CSR kernel at every
// Parallelism 1..8 as under the frozen pre-refactor reference kernel, and
// TopK (which has no reference twin — the engine itself was rewritten onto
// the CSR) must be byte-identical across Parallelism 1..8 and agree with the
// reference baseline on every exact relevance.
func TestKernelOracleProperty(t *testing.T) {
	const k = 5
	const lambda = 0.5
	for seed := int64(1); seed <= 20; seed++ {
		g := gen.Synthetic(gen.SynthConfig{N: 400, M: 2400, Seed: seed})
		ps, err := gen.Suite(g, gen.PatternConfig{
			Nodes: 4, Edges: 5, Cyclic: seed%2 == 0, Predicates: seed%3 == 0, Seed: seed,
		}, 1)
		if err != nil {
			// Cyclic mining can fail on sparse instances; retry acyclic.
			ps, err = gen.Suite(g, gen.PatternConfig{Nodes: 4, Edges: 5, Seed: seed}, 1)
			if err != nil {
				t.Fatalf("seed %d: pattern generation: %v", seed, err)
			}
		}
		p := ps[0]

		refBase, err := oracle.MatchBaseline(g, p, k, nil)
		if err != nil {
			t.Fatalf("seed %d: reference baseline: %v", seed, err)
		}
		wantBase := serializeBaseline(refBase)

		refDiv, err := TopKDivFromBase(refBase, k, lambda, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: reference TopKDiv: %v", seed, err)
		}
		wantDiv := serializeDiv(refDiv)

		var wantTopK string
		for par := 1; par <= 8; par++ {
			opts := core.Options{Parallelism: par}

			base, err := core.MatchBaselineOpts(g, p, k, true, opts)
			if err != nil {
				t.Fatalf("seed %d par %d: baseline: %v", seed, par, err)
			}
			if got := serializeBaseline(base); got != wantBase {
				t.Fatalf("seed %d par %d: baseline diverges from reference kernel\nref:\n%s\ncsr:\n%s",
					seed, par, wantBase, got)
			}

			div, err := TopKDivOpts(g, p, k, lambda, opts)
			if err != nil {
				t.Fatalf("seed %d par %d: TopKDiv: %v", seed, par, err)
			}
			if got := serializeDiv(div); got != wantDiv {
				t.Fatalf("seed %d par %d: TopKDiv diverges from reference kernel\nref:\n%s\ncsr:\n%s",
					seed, par, wantDiv, got)
			}

			topk, err := core.TopK(g, p, k, opts)
			if err != nil {
				t.Fatalf("seed %d par %d: TopK: %v", seed, par, err)
			}
			got := serializeBaseline(topk)
			if par == 1 {
				wantTopK = got
			} else if got != wantTopK {
				t.Fatalf("seed %d: TopK diverges between Parallelism 1 and %d\npar1:\n%s\npar%d:\n%s",
					seed, par, wantTopK, par, got)
			}
			checkTopKAgainstBaseline(t, seed, par, topk, refBase, k)
		}
	}
}

// checkTopKAgainstBaseline verifies the engine's answer against the
// reference find-all oracle: exact relevances must match the baseline's
// δr, and the selected top-k must be a valid top-k set (same multiset of
// relevance values as the baseline's k best).
func checkTopKAgainstBaseline(t *testing.T, seed int64, par int, topk, base *core.Result, k int) {
	t.Helper()
	if topk.GlobalMatch != base.GlobalMatch {
		t.Fatalf("seed %d par %d: GlobalMatch %v vs baseline %v", seed, par, topk.GlobalMatch, base.GlobalMatch)
	}
	if !topk.GlobalMatch {
		return
	}
	exact := make(map[graph.NodeID]int, len(base.All))
	for _, m := range base.All {
		exact[m.Node] = m.Relevance
	}
	for _, m := range topk.All {
		if m.Exact && exact[m.Node] != m.Relevance {
			t.Fatalf("seed %d par %d: exact relevance of node %d = %d, oracle %d",
				seed, par, m.Node, m.Relevance, exact[m.Node])
		}
	}
	want := relevanceMultiset(base.Matches)
	got := relevanceMultiset(topk.Matches)
	if want != got {
		t.Fatalf("seed %d par %d: top-%d relevance multiset %s, oracle %s", seed, par, k, got, want)
	}
}

func relevanceMultiset(ms []core.Match) string {
	rels := make([]int, len(ms))
	for i, m := range ms {
		rels[i] = m.Relevance
	}
	sort.Ints(rels)
	return fmt.Sprint(rels)
}
