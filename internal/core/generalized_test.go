package core

import (
	"testing"

	"divtopk/internal/pattern"
	"divtopk/internal/ranking"
	"divtopk/internal/testutil"
)

func TestRankedGeneralizedSetSizeMatchesDefault(t *testing.T) {
	// Under the relevant-set-size function, the generalized ranking must
	// coincide with the default δr ranking.
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	gen, err := RankedGeneralized(g, p, 4, ranking.RelSetSize{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := MatchBaseline(g, p, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Matches {
		if gen.Matches[i].Node != base.Matches[i].Node {
			t.Fatalf("rank %d differs: %d vs %d", i, gen.Matches[i].Node, base.Matches[i].Node)
		}
		if gen.Scores[i] != float64(base.Matches[i].Relevance) {
			t.Fatalf("score %d = %v, want %d", i, gen.Scores[i], base.Matches[i].Relevance)
		}
	}
}

func TestRankedGeneralizedPreferenceAttachment(t *testing.T) {
	// Preference attachment = |R(uo)| * |R*|; with |R(uo)| = 3 descendant
	// query nodes the scores are 3x the set sizes, order unchanged.
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	gen, err := RankedGeneralized(g, p, 4, ranking.PreferenceAttachment{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Scores[0] != 24 { // PM2: 3 * 8
		t.Fatalf("top score = %v, want 24", gen.Scores[0])
	}
}

func TestRankedGeneralizedCommonNeighbors(t *testing.T) {
	// Common neighbours = |M(Q,G,R(uo)) ∩ R*|. Every member of a relevant
	// set is a match here, so scores equal the set sizes.
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	gen, err := RankedGeneralized(g, p, 4, ranking.CommonNeighbors{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Scores[0] != 8 {
		t.Fatalf("top score = %v, want 8", gen.Scores[0])
	}
	// Jaccard coefficient: |M ∩ R*| / |M ∪ R*| with |M| = 11.
	gen2, err := RankedGeneralized(g, p, 4, ranking.JaccardCoefficient{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gen2.Scores[0], 8.0/11.0; got != want {
		t.Fatalf("jaccard top score = %v, want %v", got, want)
	}
}

func TestRankedGeneralizedUnmatched(t *testing.T) {
	g, _ := testutil.Figure1()
	p := pattern.New()
	p.AddNode("CEO")
	gen, err := RankedGeneralized(g, p, 3, ranking.RelSetSize{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.GlobalMatch || len(gen.Matches) != 0 {
		t.Fatal("unmatched pattern must yield empty generalized result")
	}
}
