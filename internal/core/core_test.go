package core

import (
	"math/rand"
	"sort"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
)

func TestExample7TopKDAG(t *testing.T) {
	// Q1 = {(PM,DB),(PM,PRG),(PRG,DB)}, k=1: the paper's TopKDAG (TopK on
	// this DAG pattern) identifies PM2 (δr=3) and terminates after a single
	// covering batch fed {DB2}.
	g, id := testutil.Figure1()
	q1 := testutil.Example7Pattern()
	res, err := TopK(g, q1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GlobalMatch || len(res.Matches) != 1 {
		t.Fatalf("got %d matches, global=%v", len(res.Matches), res.GlobalMatch)
	}
	if res.Matches[0].Node != id["PM2"] {
		t.Fatalf("top-1 = node %d, want PM2 (%d)", res.Matches[0].Node, id["PM2"])
	}
	if res.Matches[0].Relevance != 3 {
		t.Fatalf("δr(PM2) = %d, want 3", res.Matches[0].Relevance)
	}
	if res.Stats.Batches != 1 {
		t.Errorf("batches = %d, want 1 (Example 7: single iteration)", res.Stats.Batches)
	}
	if !res.Stats.EarlyTerminated {
		t.Error("Example 7 must terminate early")
	}
}

func TestExample8TopKCyclic(t *testing.T) {
	// Full pattern Q, k=2: TopK returns {PM2, PM3} (PM3 ties PM4 at δr=6;
	// node order breaks the tie exactly as the paper reports PM3).
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopK(g, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("got %d matches", len(res.Matches))
	}
	if res.Matches[0].Node != id["PM2"] || res.Matches[0].Relevance != 8 {
		t.Fatalf("first = %d rel %d, want PM2 rel 8", res.Matches[0].Node, res.Matches[0].Relevance)
	}
	if res.Matches[1].Node != id["PM3"] || res.Matches[1].Relevance != 6 {
		t.Fatalf("second = %d rel %d, want PM3 rel 6", res.Matches[1].Node, res.Matches[1].Relevance)
	}
}

func TestMatchBaselineFigure1(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := MatchBaseline(g, p, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GlobalMatch {
		t.Fatal("G matches Q")
	}
	if res.Stats.MatchesFound != 4 {
		t.Fatalf("baseline examined %d matches, want all 4", res.Stats.MatchesFound)
	}
	// Example 4 relevances: PM2=8, PM3=PM4=6, PM1=4.
	want := map[graph.NodeID]int{id["PM1"]: 4, id["PM2"]: 8, id["PM3"]: 6, id["PM4"]: 6}
	for _, m := range res.All {
		if want[m.Node] != m.Relevance {
			t.Errorf("δr(node %d) = %d, want %d", m.Node, m.Relevance, want[m.Node])
		}
		if !m.Exact || m.Upper != m.Relevance {
			t.Errorf("baseline match must be exact")
		}
		if m.R == nil || m.R.Count() != m.Relevance {
			t.Errorf("baseline R set inconsistent")
		}
	}
	// Top-2 relevance sum = 14 (Example 4).
	if res.Matches[0].Relevance+res.Matches[1].Relevance != 14 {
		t.Errorf("top-2 relevance sum = %d, want 14", res.Matches[0].Relevance+res.Matches[1].Relevance)
	}
}

func TestEngineEarlyBoundsSoundness(t *testing.T) {
	// On the Fig. 1 fixture, every returned match must satisfy l <= δr <= h
	// against the exact baseline, for every strategy/bound mode.
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	exact := map[graph.NodeID]int{}
	base, err := MatchBaseline(g, p, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range base.All {
		exact[m.Node] = m.Relevance
	}
	for _, strat := range []Strategy{StrategyCovering, StrategyRandom} {
		for _, bm := range []BoundMode{BoundTight, BoundLabelCount, BoundCheap} {
			res, err := TopK(g, p, 2, Options{Strategy: strat, Bounds: bm, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.All {
				d, ok := exact[m.Node]
				if !ok {
					t.Fatalf("%v/%v: engine found non-match %d", strat, bm, m.Node)
				}
				if m.Relevance > d || m.Upper < d {
					t.Fatalf("%v/%v: bounds [%d,%d] exclude δr=%d for node %d",
						strat, bm, m.Relevance, m.Upper, d, m.Node)
				}
			}
		}
	}
}

// topKRelevances extracts the sorted relevance multiset of the top k.
func topKRelevances(ms []Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Relevance
	}
	return out
}

func TestEngineAgainstBaselineProperty(t *testing.T) {
	// The central correctness property: for random graphs and patterns, the
	// engine's top-k relevance multiset must equal the exact baseline's,
	// under every strategy, bound mode, batch granularity, cyclicity and
	// output-node position.
	rng := rand.New(rand.NewSource(77))
	labels := []string{"a", "b", "c"}
	trials := 0
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(18)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n), labels)
		var p *pattern.Pattern
		switch trial % 4 {
		case 0:
			p = testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, false)
		case 1:
			p = testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(5), labels, true)
		case 2:
			p = testutil.NonRootPattern(rng, 2+rng.Intn(4), rng.Intn(4), labels, true)
		default:
			p = testutil.NonRootPattern(rng, 2+rng.Intn(4), rng.Intn(3), labels, false)
		}
		k := 1 + rng.Intn(4)
		base, err := MatchBaseline(g, p, k, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Strategy:   Strategy(trial % 2),
			Seed:       int64(trial),
			NumBatches: 1 + rng.Intn(6),
			Bounds:     BoundMode(trial % 3),
		}
		res, err := TopK(g, p, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.GlobalMatch != base.GlobalMatch {
			t.Fatalf("trial %d: GlobalMatch %v vs baseline %v\npattern=%s",
				trial, res.GlobalMatch, base.GlobalMatch, p)
		}
		if !base.GlobalMatch {
			if len(res.Matches) != 0 {
				t.Fatalf("trial %d: matches returned for unmatched pattern", trial)
			}
			continue
		}
		// Early termination guarantees the *set* is top-k by exact δr; the
		// reported relevances are lower bounds. Map the returned nodes to
		// their exact δr via the baseline and compare multisets.
		exact := map[graph.NodeID]int{}
		for _, m := range base.All {
			exact[m.Node] = m.Relevance
		}
		got := make([]int, 0, len(res.Matches))
		for _, m := range res.Matches {
			d, ok := exact[m.Node]
			if !ok {
				t.Fatalf("trial %d: engine returned non-match %d\npattern=%s", trial, m.Node, p)
			}
			if m.Relevance > d || (m.Exact && m.Relevance != d) || m.Upper < d {
				t.Fatalf("trial %d: node %d bounds [%d,%d] exact=%v vs δr=%d\npattern=%s\nopts=%+v",
					trial, m.Node, m.Relevance, m.Upper, m.Exact, d, p, opts)
			}
			got = append(got, d)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(got)))
		want := topKRelevances(base.Matches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d\npattern=%s", trial, len(got), len(want), p)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: top-k exact relevances %v, want %v\npattern=%s\nopts=%+v",
					trial, got, want, p, opts)
			}
		}
		// Examined matches never exceed the total.
		if res.Stats.MatchesFound > base.Stats.MatchesFound {
			t.Fatalf("trial %d: examined %d > total %d", trial, res.Stats.MatchesFound, base.Stats.MatchesFound)
		}
		trials++
	}
	if trials < 100 {
		t.Fatalf("too few matched trials: %d", trials)
	}
}

func TestSingleNodePattern(t *testing.T) {
	g, _ := testutil.Figure1()
	p := pattern.New()
	p.AddNode("ST")
	res, err := TopK(g, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Stats.MatchesFound > 4 {
		t.Fatalf("single-node: %d matches, %d found", len(res.Matches), res.Stats.MatchesFound)
	}
	for _, m := range res.Matches {
		if m.Relevance != 0 || !m.Exact {
			t.Fatalf("single-node matches have empty relevant sets, got %+v", m)
		}
	}
}

func TestKLargerThanMatches(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopK(g, p, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 4 {
		t.Fatalf("k=100 should return all 4 matches, got %d", len(res.Matches))
	}
	if res.Stats.EarlyTerminated {
		t.Error("cannot terminate early when k exceeds the match count")
	}
}

func TestNoCandidatesForSomeQueryNode(t *testing.T) {
	g, _ := testutil.Figure1()
	p := pattern.New()
	pm := p.AddNode("PM")
	x := p.AddNode("CEO")
	if err := p.AddEdge(pm, x); err != nil {
		t.Fatal(err)
	}
	res, err := TopK(g, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalMatch || len(res.Matches) != 0 {
		t.Fatal("pattern with no candidates must yield empty result")
	}
}

func TestGlobalMatchRequiredForNonRootOutput(t *testing.T) {
	// Output node's subtree matches, but a sibling branch cannot: the
	// result must be empty (simulation semantics).
	b := graph.NewBuilder()
	r := b.AddNode("root", nil)
	x := b.AddNode("x", nil)
	if err := b.AddEdge(r, x); err != nil {
		t.Fatal(err)
	}
	g := b.Build()

	p := pattern.New()
	root := p.AddNode("root")
	out := p.AddNode("x")
	missing := p.AddNode("y") // no y-labelled node in G
	if err := p.AddEdge(root, out); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(root, missing); err != nil {
		t.Fatal(err)
	}
	if err := p.SetOutput(out); err != nil {
		t.Fatal(err)
	}
	res, err := TopK(g, p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalMatch || len(res.Matches) != 0 {
		t.Fatal("unmatched sibling branch must empty the result")
	}

	// Sanity: with the missing branch removed, x matches.
	p2 := pattern.New()
	root2 := p2.AddNode("root")
	out2 := p2.AddNode("x")
	if err := p2.AddEdge(root2, out2); err != nil {
		t.Fatal(err)
	}
	if err := p2.SetOutput(out2); err != nil {
		t.Fatal(err)
	}
	res2, err := TopK(g, p2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.GlobalMatch || len(res2.Matches) != 1 {
		t.Fatalf("expected one match, got %+v", res2)
	}
}

func TestBadInputs(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	if _, err := TopK(g, p, 0, Options{}); err != ErrBadK {
		t.Errorf("k=0: err = %v", err)
	}
	if _, err := MatchBaseline(g, p, -1, false); err != ErrBadK {
		t.Errorf("baseline k=-1: err = %v", err)
	}
	if _, err := TopK(nil, p, 1, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	bad := pattern.New() // no nodes
	if _, err := TopK(g, bad, 1, Options{}); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestSelfLoopPatternEngine(t *testing.T) {
	// Pattern with a self-loop: a* -> a (self-loop on the output).
	g, p := selfLoopCase(t)
	base, err := MatchBaseline(g, p, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TopK(g, p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(base.Matches) {
		t.Fatalf("self-loop: engine %d matches vs baseline %d", len(res.Matches), len(base.Matches))
	}
	for i := range res.Matches {
		if res.Matches[i].Relevance != base.Matches[i].Relevance {
			t.Fatalf("self-loop relevances differ: %v vs %v",
				topKRelevances(res.Matches), topKRelevances(base.Matches))
		}
	}
}

func TestCoveringExaminesFewerThanRandom(t *testing.T) {
	// The optimized strategy should on average examine no more matches than
	// the random one (the paper's 16-18% improvement claim, directionally).
	rng := rand.New(rand.NewSource(3))
	labels := []string{"a", "b", "c", "d"}
	sumCov, sumRnd := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 30 + rng.Intn(40)
		g := testutil.RandomGraph(rng, n, 3*n, labels)
		p := testutil.RandomPattern(rng, 3, 1, labels, false)
		cov, err := TopK(g, p, 2, Options{Strategy: StrategyCovering, NumBatches: 8})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := TopK(g, p, 2, Options{Strategy: StrategyRandom, Seed: int64(trial), NumBatches: 8})
		if err != nil {
			t.Fatal(err)
		}
		sumCov += cov.Stats.MatchesFound
		sumRnd += rnd.Stats.MatchesFound
	}
	if sumCov > sumRnd*3/2 {
		t.Errorf("covering examined far more than random: %d vs %d", sumCov, sumRnd)
	}
}

func TestStatsAndStringers(t *testing.T) {
	if StrategyCovering.String() != "covering" || StrategyRandom.String() != "random" {
		t.Error("Strategy.String wrong")
	}
	if BoundTight.String() != "tight" || BoundLabelCount.String() != "label-count" || BoundCheap.String() != "cheap" {
		t.Error("BoundMode.String wrong")
	}
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res, err := TopK(g, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CandidatesOfOutput != 4 || res.Stats.PairsTotal != 15 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if res.Cuo != 11 {
		t.Errorf("Cuo = %d, want 11", res.Cuo)
	}
}
