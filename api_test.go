package divtopk

import (
	"bytes"
	"strings"
	"testing"

	"divtopk/internal/graph"
)

// figure1 builds the paper's Fig. 1 graph through the public API.
func figure1(t *testing.T) (*Graph, map[string]int) {
	t.Helper()
	b := NewGraphBuilder()
	names := []string{
		"PM1", "PM2", "PM3", "PM4", "DB1", "DB2", "DB3",
		"PRG1", "PRG2", "PRG3", "PRG4", "ST1", "ST2", "ST3", "ST4",
		"BA1", "UD1", "UD2",
	}
	id := map[string]int{}
	for _, n := range names {
		id[n] = b.AddNode(n[:len(n)-1])
	}
	edges := [][2]string{
		{"PM1", "DB1"}, {"PM1", "PRG1"}, {"PM1", "BA1"},
		{"PM2", "DB2"}, {"PM2", "PRG3"}, {"PM2", "PRG4"}, {"PM2", "UD1"},
		{"PM3", "DB2"}, {"PM3", "PRG3"},
		{"PM4", "DB2"}, {"PM4", "PRG2"}, {"PM4", "UD2"},
		{"DB1", "PRG1"}, {"DB1", "ST1"},
		{"PRG1", "DB1"}, {"PRG1", "ST1"}, {"PRG1", "ST2"},
		{"DB2", "PRG2"}, {"DB2", "ST3"},
		{"PRG2", "DB3"}, {"PRG2", "ST4"},
		{"DB3", "PRG3"}, {"DB3", "ST4"},
		{"PRG3", "DB2"}, {"PRG3", "ST3"},
		{"PRG4", "DB2"}, {"PRG4", "ST2"}, {"PRG4", "ST3"},
	}
	for _, e := range edges {
		if err := b.AddEdge(id[e[0]], id[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(), id
}

func figure1Pattern(t *testing.T) *Pattern {
	t.Helper()
	pb := NewPatternBuilder()
	pm := pb.AddNode("PM")
	db := pb.AddNode("DB")
	prg := pb.AddNode("PRG")
	st := pb.AddNode("ST")
	for _, e := range [][2]int{{pm, db}, {pm, prg}, {db, prg}, {prg, db}, {db, st}, {prg, st}} {
		if err := pb.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pb.Output(pm); err != nil {
		t.Fatal(err)
	}
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicTopK(t *testing.T) {
	g, id := figure1(t)
	p := figure1Pattern(t)
	res, err := TopK(g, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GlobalMatch || len(res.Matches) != 2 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Matches[0].Node != id["PM2"] || res.Matches[0].Label != "PM" {
		t.Fatalf("top-1 = %+v, want PM2", res.Matches[0])
	}
	if res.Matches[0].Relevance != 8 || !res.Matches[0].Exact {
		t.Fatalf("PM2 relevance = %+v", res.Matches[0])
	}
	if len(res.Matches[0].RelevantSet) != 8 {
		t.Fatalf("relevant set size = %d", len(res.Matches[0].RelevantSet))
	}
	if res.Stats.Candidates != 4 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestPublicTopKVariants(t *testing.T) {
	g, _ := figure1(t)
	p := figure1Pattern(t)
	base, err := TopK(g, p, 2, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Examined != 4 || base.Stats.EarlyTerminated {
		t.Fatalf("baseline stats = %+v", base.Stats)
	}
	if base.Matches[0].Relevance+base.Matches[1].Relevance != 14 {
		t.Fatalf("baseline top-2 sum wrong: %+v", base.Matches)
	}
}

func TestPublicDiversified(t *testing.T) {
	g, _ := figure1(t)
	p := figure1Pattern(t)
	ap, err := TopKDiversified(g, p, 2, 0.5, WithApproximation())
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Matches) != 2 || ap.F < 16.0/11.0-1e-9 {
		t.Fatalf("approx: F=%v matches=%d", ap.F, len(ap.Matches))
	}
	dh, err := TopKDiversified(g, p, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dh.Matches) != 2 {
		t.Fatalf("heuristic matches = %d", len(dh.Matches))
	}
}

func TestPublicMatches(t *testing.T) {
	g, id := figure1(t)
	p := figure1Pattern(t)
	ms := g.Matches(p)
	if len(ms) != 4 {
		t.Fatalf("Mu = %v", ms)
	}
	if ms[0] != id["PM1"] {
		t.Fatalf("Mu not in ascending order: %v", ms)
	}
}

func TestPublicIO(t *testing.T) {
	g, _ := figure1(t)
	p := figure1Pattern(t)
	var gb, pb bytes.Buffer
	if err := WriteGraph(&gb, g); err != nil {
		t.Fatal(err)
	}
	if err := WritePattern(&pb, p); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&gb)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ReadPattern(&pb)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || p2.String() != p.String() {
		t.Fatal("roundtrip mismatch")
	}
	if _, err := ReadGraph(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("garbage graph accepted")
	}
}

func TestPublicGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"synthetic", NewSynthetic(500, 1500, 0, 1)},
		{"citation", NewCitationLike(500, 1500, 1)},
		{"youtube", NewYouTubeLike(500, 1500, 1)},
	} {
		if tc.g.NumNodes() != 500 {
			t.Errorf("%s: nodes = %d", tc.name, tc.g.NumNodes())
		}
		p, err := GeneratePattern(tc.g, 3, 3, false, false, 2)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		res, err := TopK(tc.g, p, 5)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !res.GlobalMatch || len(res.Matches) == 0 {
			t.Errorf("%s: instance-guided pattern yielded no matches", tc.name)
		}
	}
}

func TestPublicCaseStudyPatterns(t *testing.T) {
	q1, q2 := CaseStudyQ1(), CaseStudyQ2()
	if q1.IsDAG() || !q2.IsDAG() {
		t.Fatal("case-study pattern shapes wrong")
	}
	// Q2's predicate chain is selective; it needs a graph of realistic size
	// (the gen tests verify the same size matches deterministically).
	g := NewYouTubeLike(20000, 70000, 4)
	r1, err := TopK(g, q1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.GlobalMatch {
		t.Fatal("Q1 should match the YouTube-like graph")
	}
	d2, err := TopKDiversified(g, q2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.GlobalMatch || len(d2.Matches) != 2 {
		t.Fatalf("Q2 diversified: %+v", d2)
	}
}

// TestInducedSubgraph materializes the graph induced by a top-k answer's
// relevant set — the subgraphs the case study draws in Fig. 4 — from what
// the facade returns.
func TestInducedSubgraph(t *testing.T) {
	g, _ := figure1(t)
	p := figure1Pattern(t)
	res, err := TopK(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []graph.NodeID
	for _, v := range append(res.Matches[0].RelevantSet, res.Matches[0].Node) {
		nodes = append(nodes, graph.NodeID(v))
	}
	sub, orig := graph.InducedSubgraph(g.g, nodes)
	if sub.NumNodes() != 9 { // PM2 + its 8-node relevant set
		t.Fatalf("induced nodes = %d", sub.NumNodes())
	}
	if len(orig) != sub.NumNodes() {
		t.Fatal("orig mapping size mismatch")
	}
}

func TestPublicGeneralizedRelevance(t *testing.T) {
	g, id := figure1(t)
	p := figure1Pattern(t)
	for _, name := range []string{"relevant-set-size", "preference-attachment", "common-neighbors", "jaccard-coefficient"} {
		res, scores, err := TopKByRelevanceFunc(g, p, 2, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Matches) != 2 || len(scores) != 2 {
			t.Fatalf("%s: %d matches %d scores", name, len(res.Matches), len(scores))
		}
		if scores[0] < scores[1] {
			t.Fatalf("%s: scores not descending: %v", name, scores)
		}
	}
	// Under every monotone-in-|R| function PM2 ranks first.
	res, _, err := TopKByRelevanceFunc(g, p, 1, "preference-attachment")
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches[0].Node != id["PM2"] {
		t.Fatalf("top = %+v, want PM2", res.Matches[0])
	}
	if _, _, err := TopKByRelevanceFunc(g, p, 1, "nope"); err == nil {
		t.Fatal("unknown relevance function accepted")
	}
}
