package divtopk

import (
	"divtopk/internal/core"
	"divtopk/internal/gen"
	"divtopk/internal/ranking"
)

// NewSynthetic generates a scale-free directed graph with n nodes, m edges
// and the given label alphabet size (the paper's synthetic dataset; 15
// labels when labels <= 0). Deterministic in seed.
func NewSynthetic(n, m, labels int, seed int64) *Graph {
	return &Graph{g: gen.Synthetic(gen.SynthConfig{N: n, M: m, Labels: labels, Seed: seed})}
}

// NewCitationLike generates a citation-style DAG (venue areas, year
// attribute) standing in for the paper's Citation dataset.
func NewCitationLike(n, m int, seed int64) *Graph {
	return &Graph{g: gen.CitationLike(n, m, seed)}
}

// NewYouTubeLike generates a recommendation-style cyclic graph (video
// categories; A/V/R attributes) standing in for the paper's YouTube
// dataset.
func NewYouTubeLike(n, m int, seed int64) *Graph {
	return &Graph{g: gen.YouTubeLike(n, m, seed)}
}

// GeneratePattern mines an instance-guided pattern of the requested shape
// from g: the result is guaranteed to have at least one match of its output
// node in g. cyclic asks for a directed cycle in the pattern; preds attaches
// attribute predicates satisfied by the mined instance.
func GeneratePattern(g *Graph, nodes, edges int, cyclic, preds bool, seed int64) (*Pattern, error) {
	p, err := gen.Generate(g.g, gen.PatternConfig{
		Nodes: nodes, Edges: edges, Cyclic: cyclic, Predicates: preds, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &Pattern{p: p}, nil
}

// CaseStudyQ1 returns the cyclic YouTube case-study pattern Q1 of the
// paper's Fig. 4(a).
func CaseStudyQ1() *Pattern { return &Pattern{p: gen.Fig4Q1()} }

// CaseStudyQ2 returns the DAG YouTube case-study pattern Q2 of the paper's
// Fig. 4(b).
func CaseStudyQ2() *Pattern { return &Pattern{p: gen.Fig4Q2()} }

// TopKByRelevanceFunc ranks the full match set of the output node under one
// of the generalized relevance functions of §3.4, selected by name:
// "relevant-set-size" (the default δr), "preference-attachment",
// "common-neighbors" or "jaccard-coefficient". It evaluates the entire
// match set (find-all), returning up to k matches with their generalized
// scores.
func TopKByRelevanceFunc(g *Graph, p *Pattern, k int, relevance string) (*Result, []float64, error) {
	rel, err := ranking.RelevanceByName(relevance)
	if err != nil {
		return nil, nil, err
	}
	gen, err := core.RankedGeneralized(g.g, p.p, k, rel)
	if err != nil {
		return nil, nil, err
	}
	res := convertResult(g, gen.Result)
	scores := gen.Scores
	if len(scores) > len(res.Matches) {
		scores = scores[:len(res.Matches)]
	}
	return res, scores, nil
}
