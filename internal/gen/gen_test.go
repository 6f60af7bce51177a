package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"divtopk/internal/graph"
	"divtopk/internal/simulation"
)

func TestSyntheticShape(t *testing.T) {
	g := Synthetic(SynthConfig{N: 2000, M: 4000, Seed: 1})
	if g.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Edge dedup can only lose a handful on this density.
	if g.NumEdges() < 3800 || g.NumEdges() > 4000 {
		t.Fatalf("edges = %d, want ~4000", g.NumEdges())
	}
	if got := g.Dict().Size(); got > 15 {
		t.Fatalf("labels = %d, want <= 15", got)
	}
	// Scale-free-ness, weakly: the max degree should far exceed the mean.
	s := graph.ComputeStats(g)
	if s.MaxInDegree < 10*int(s.AvgDegree) {
		t.Errorf("max in-degree %d does not look preferential (avg %.1f)", s.MaxInDegree, s.AvgDegree)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(SynthConfig{N: 500, M: 1000, Seed: 42})
	b := Synthetic(SynthConfig{N: 500, M: 1000, Seed: 42})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give the same graph")
	}
	for v := graph.NodeID(0); v < 500; v++ {
		if a.Label(v) != b.Label(v) {
			t.Fatal("labels differ under the same seed")
		}
	}
	c := Synthetic(SynthConfig{N: 500, M: 1000, Seed: 43})
	same := true
	for v := graph.NodeID(0); v < 500; v++ {
		if a.Label(v) != c.Label(v) {
			same = false
			break
		}
	}
	if same && a.NumEdges() == c.NumEdges() {
		t.Error("different seeds should give different graphs")
	}
}

func TestCitationIsDAG(t *testing.T) {
	g := CitationLike(3000, 8000, 7)
	s := graph.ComputeStats(g)
	if !s.IsDAG {
		t.Fatal("citation graph must be a DAG")
	}
	// Years must be non-increasing along edges (papers cite older papers).
	for v := graph.NodeID(0); v < graph.NodeID(g.NumNodes()); v++ {
		yv, _ := g.Attr(v, "year")
		for _, w := range g.Out(v) {
			yw, _ := g.Attr(w, "year")
			if yw.Int > yv.Int {
				t.Fatalf("edge %d->%d goes forward in time (%d -> %d)", v, w, yv.Int, yw.Int)
			}
		}
	}
}

func TestAmazonAndYouTubeCyclic(t *testing.T) {
	a := graph.ComputeStats(AmazonLike(2000, 6000, 3))
	if a.IsDAG {
		t.Error("amazon-like graph should contain cycles")
	}
	y := YouTubeLike(2000, 6000, 3)
	ys := graph.ComputeStats(y)
	if ys.IsDAG {
		t.Error("youtube-like graph should contain cycles")
	}
	// Attributes present and C mirrors the label.
	for v := graph.NodeID(0); v < 50; v++ {
		c, ok := y.Attr(v, "C")
		if !ok || c.Str != y.Label(v) {
			t.Fatalf("node %d: C=%v label=%s", v, c, y.Label(v))
		}
		for _, key := range []string{"A", "V", "R"} {
			if _, ok := y.Attr(v, key); !ok {
				t.Fatalf("node %d missing attr %s", v, key)
			}
		}
		r, _ := y.Attr(v, "R")
		if r.Int < 1 || r.Int > 5 {
			t.Fatalf("rate out of range: %d", r.Int)
		}
	}
}

func TestGeneratedPatternsMatch(t *testing.T) {
	// DAG patterns on citation-like data, cyclic on youtube-like: every
	// instance-guided pattern must have a non-empty Mu(Q,G,uo).
	cit := CitationLike(3000, 9000, 11)
	dags, err := Suite(cit, PatternConfig{Nodes: 4, Edges: 6, Seed: 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dags {
		if !p.IsDAG() {
			t.Fatalf("pattern %d not a DAG: %s", i, p)
		}
		res := simulation.Compute(cit, p)
		if !res.Matched || len(res.MatchesOf(p.Output())) == 0 {
			t.Fatalf("DAG pattern %d unmatched: %s", i, p)
		}
	}

	yt := YouTubeLike(3000, 10000, 11)
	cycs, err := Suite(yt, PatternConfig{Nodes: 4, Edges: 8, Cyclic: true, Predicates: true, Seed: 9}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range cycs {
		if p.IsDAG() {
			t.Fatalf("pattern %d should be cyclic: %s", i, p)
		}
		res := simulation.Compute(yt, p)
		if !res.Matched || len(res.MatchesOf(p.Output())) == 0 {
			t.Fatalf("cyclic pattern %d unmatched: %s", i, p)
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	g := Synthetic(SynthConfig{N: 3000, M: 9000, Seed: 2})
	p, err := Generate(g, PatternConfig{Nodes: 6, Edges: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", p.NumNodes())
	}
	if p.NumEdges() < 5 || p.NumEdges() > 9 {
		t.Fatalf("edges = %d, want within [5,9]", p.NumEdges())
	}
	if p.Output() != 0 {
		t.Fatal("output must be the instance root")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(graph.NewBuilder().Build(), PatternConfig{Nodes: 2, Edges: 1}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Generate(Synthetic(SynthConfig{N: 10, M: 10, Seed: 1}), PatternConfig{Nodes: 0}); err == nil {
		t.Error("zero-node pattern accepted")
	}
	// A DAG graph cannot yield cyclic patterns.
	dag := CitationLike(200, 400, 5)
	if _, err := Generate(dag, PatternConfig{Nodes: 3, Edges: 5, Cyclic: true, Seed: 1}); err == nil {
		t.Error("cyclic pattern mined from a DAG")
	}
}

func TestFig4Patterns(t *testing.T) {
	q1, q2 := Fig4Q1(), Fig4Q2()
	if q1.IsDAG() {
		t.Error("Q1 must be cyclic")
	}
	if !q2.IsDAG() {
		t.Error("Q2 must be a DAG")
	}
	if err := q1.Validate(); err != nil {
		t.Error(err)
	}
	if err := q2.Validate(); err != nil {
		t.Error(err)
	}
	// Both must match a reasonably sized YouTube-like graph.
	g := YouTubeLike(20000, 70000, 4)
	r1 := simulation.Compute(g, q1)
	if !r1.Matched || len(r1.MatchesOf(q1.Output())) == 0 {
		t.Error("Q1 has no matches on the YouTube-like graph")
	}
	r2 := simulation.Compute(g, q2)
	if !r2.Matched || len(r2.MatchesOf(q2.Output())) == 0 {
		t.Error("Q2 has no matches on the YouTube-like graph")
	}
}

func TestSuiteDistinct(t *testing.T) {
	g := Synthetic(SynthConfig{N: 2000, M: 6000, Seed: 8})
	ps, err := Suite(g, PatternConfig{Nodes: 4, Edges: 5, Seed: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, p := range ps {
		distinct[p.String()] = true
	}
	if len(distinct) < 2 {
		t.Error("suite should produce varied patterns")
	}
}

// generators lists every dataset generator under one signature.
var generators = []struct {
	name string
	gen  func(n, m int, seed int64) *graph.Graph
}{
	{"synthetic", func(n, m int, seed int64) *graph.Graph { return Synthetic(SynthConfig{N: n, M: m, Seed: seed}) }},
	{"amazon", AmazonLike},
	{"citation", CitationLike},
	{"youtube", YouTubeLike},
}

// TestGeneratorsTinyGraphs: a graph of fewer than two nodes has room for no
// edge but a self-loop. Each generator must return it edgeless, promptly:
// drawing until a non-loop edge turns up never ended for n = 1, and n < 0
// panicked inside the random source. A negative m asks for no edge (it
// used to size the attachment pool negatively).
func TestGeneratorsTinyGraphs(t *testing.T) {
	for _, gen := range generators {
		for _, nm := range [][2]int{{-1, 3}, {0, 3}, {1, 3}, {2, -3}} {
			done := make(chan *graph.Graph, 1)
			go func() { done <- gen.gen(nm[0], nm[1], 1) }()
			select {
			case g := <-done:
				if g.NumEdges() != 0 {
					t.Errorf("%s n=%d m=%d: %d edges, want 0", gen.name, nm[0], nm[1], g.NumEdges())
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s n=%d m=%d: no graph after 10s", gen.name, nm[0], nm[1])
			}
		}
	}
}

// TestGeneratorsPinned pins each generator's output byte for byte (the
// SHA-256 of its text form): benchmark inputs and every figure of
// internal/bench are generated, so a change to a generator changes them all.
func TestGeneratorsPinned(t *testing.T) {
	want := map[string]string{
		"synthetic": "ce1d2e1f16ee16d6835be873abe76c83d7c1ec3466e8816ba6c49565175d834b",
		"amazon":    "15817490ebf83aa2fdd46b194a2f9ed1c5a90ec04c94ca00118a9d054a0e23cd",
		"citation":  "18653fb29c134783858a475e419603ee6f577d44f36b28aed77cdc9705cd05dc",
		"youtube":   "6eded8460a9793eb135ad68806054716364548bfdd19ca5ae88cda35914dfa41",
	}
	for _, gen := range generators {
		h := sha256.New()
		if err := graph.Write(h, gen.gen(300, 1500, 7)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[gen.name] {
			t.Errorf("%s(300, 1500, 7): sha256 %s, pinned %s", gen.name, got, want[gen.name])
		}
	}
}
