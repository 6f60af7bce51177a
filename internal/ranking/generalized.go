package ranking

import (
	"fmt"
	"sort"

	"divtopk/internal/bitset"
)

// This file implements the generalized relevance functions of §3.4. Each
// concrete function from the paper's table is provided: relevant-set size
// (default δr), preference attachment [24], common neighbours [22], Jaccard
// coefficient [28].
//
// A RelevanceInput packages the quantities the formulations are defined
// over: R(u) (the descendant query nodes of u), R*(u,v) (the generalized
// relevant set of v), and M(Q,G,R(u)) (the matches of the descendant query
// nodes). All functions are monotonically increasing PTIME functions of
// their set arguments, as §3.4 requires.

// RelevanceInput carries the per-match quantities of §3.4.
type RelevanceInput struct {
	// RSet is R*(u,v) over the relevant universe.
	RSet *bitset.Set
	// DescQueryNodes is |R(u)|: the number of query nodes u reaches.
	DescQueryNodes int
	// DescMatches is M(Q,G,R(u)) over the same universe: the union of the
	// matches of u's descendant query nodes.
	DescMatches *bitset.Set
}

// RelevanceFunc scores one match; higher is more relevant.
type RelevanceFunc interface {
	Name() string
	Score(in RelevanceInput) float64
}

// --- relevance functions ---

// RelSetSize is the paper's default δr(u,v) = |R*(u,v)|.
type RelSetSize struct{}

// Name implements RelevanceFunc.
func (RelSetSize) Name() string { return "relevant-set-size" }

// Score implements RelevanceFunc.
func (RelSetSize) Score(in RelevanceInput) float64 { return float64(in.RSet.Count()) }

// PreferenceAttachment is |R(u)| · |R*(u,v)| [24].
type PreferenceAttachment struct{}

// Name implements RelevanceFunc.
func (PreferenceAttachment) Name() string { return "preference-attachment" }

// Score implements RelevanceFunc.
func (PreferenceAttachment) Score(in RelevanceInput) float64 {
	return float64(in.DescQueryNodes) * float64(in.RSet.Count())
}

// CommonNeighbors is |M(Q,G,R(u)) ∩ R*(u,v)| [22].
type CommonNeighbors struct{}

// Name implements RelevanceFunc.
func (CommonNeighbors) Name() string { return "common-neighbors" }

// Score implements RelevanceFunc.
func (CommonNeighbors) Score(in RelevanceInput) float64 {
	return float64(in.DescMatches.IntersectCount(in.RSet))
}

// JaccardCoefficient is |M(Q,G,R(u)) ∩ R*| / |M(Q,G,R(u)) ∪ R*| [28].
type JaccardCoefficient struct{}

// Name implements RelevanceFunc.
func (JaccardCoefficient) Name() string { return "jaccard-coefficient" }

// Score implements RelevanceFunc.
func (JaccardCoefficient) Score(in RelevanceInput) float64 {
	return bitset.Jaccard(in.DescMatches, in.RSet)
}

// The registry selects a function by name (divtopk.TopKByRelevanceFunc).

var relevanceFuncs = map[string]RelevanceFunc{
	RelSetSize{}.Name():           RelSetSize{},
	PreferenceAttachment{}.Name(): PreferenceAttachment{},
	CommonNeighbors{}.Name():      CommonNeighbors{},
	JaccardCoefficient{}.Name():   JaccardCoefficient{},
}

// RelevanceByName returns the registered relevance function with that name.
func RelevanceByName(name string) (RelevanceFunc, error) {
	f, ok := relevanceFuncs[name]
	if !ok {
		return nil, fmt.Errorf("ranking: unknown relevance function %q (have %v)", name, RelevanceNames())
	}
	return f, nil
}

// RelevanceNames lists the registered relevance functions, sorted.
func RelevanceNames() []string {
	out := make([]string, 0, len(relevanceFuncs))
	for k := range relevanceFuncs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
