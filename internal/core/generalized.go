package core

import (
	"sort"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/ranking"
	"divtopk/internal/simulation"
)

// GeneralizedResult is a find-all answer re-ranked under a generalized
// relevance function of §3.4 (the constructive content of Prop. 4's
// find-all form). Scores is aligned with All.
type GeneralizedResult struct {
	*Result
	// Scores holds the generalized relevance of every entry of All, sorted
	// descending together with All.
	Scores []float64
}

// RankedGeneralized evaluates the full match set of the output node and
// ranks it under rel, one of the generalized relevance functions of §3.4
// (preference attachment, common neighbours, Jaccard coefficient, or any
// custom ranking.RelevanceFunc). The relevance input per match exposes
// R*(uo,v) (the exact relevant set), |R(uo)| (the number of query nodes the
// output reaches) and M(Q,G,R(uo)) (the union of the matches of those
// query nodes), as the paper's table of formulations requires.
func RankedGeneralized(g *graph.Graph, p *pattern.Pattern, k int, rel ranking.RelevanceFunc) (*GeneralizedResult, error) {
	base, err := MatchBaseline(g, p, k, true)
	if err != nil {
		return nil, err
	}
	out := &GeneralizedResult{Result: base}
	if !base.GlobalMatch {
		return out, nil
	}

	// M(Q,G,R(uo)) and |R(uo)| from the full simulation.
	sim := simulation.Compute(g, p)
	an := pattern.Analyze(p)
	descMatches := base.Space.NewSet()
	descQueryNodes := 0
	for u := 0; u < p.NumNodes(); u++ {
		if !an.OutputDesc[u] {
			continue
		}
		descQueryNodes++
		for _, v := range sim.MatchesOf(u) {
			if idx := base.Space.Index(v); idx >= 0 {
				descMatches.Add(int(idx))
			}
		}
	}

	out.Scores = make([]float64, len(base.All))
	for i, m := range base.All {
		out.Scores[i] = rel.Score(ranking.RelevanceInput{
			RSet:           m.R,
			DescQueryNodes: descQueryNodes,
			DescMatches:    descMatches,
		})
	}
	// Re-sort All (and Scores) by the generalized score.
	order := make([]int, len(base.All))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if out.Scores[order[a]] != out.Scores[order[b]] {
			return out.Scores[order[a]] > out.Scores[order[b]]
		}
		return base.All[order[a]].Node < base.All[order[b]].Node
	})
	sortedAll := make([]Match, len(base.All))
	sortedScores := make([]float64, len(base.All))
	for i, idx := range order {
		sortedAll[i] = base.All[idx]
		sortedScores[i] = out.Scores[idx]
	}
	out.All = sortedAll
	out.Scores = sortedScores
	top := k
	if top > len(out.All) {
		top = len(out.All)
	}
	out.Matches = out.All[:top]
	return out, nil
}
