package simulation

import (
	"math/rand"
	"sort"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
)

// naiveSim is a reference implementation: iterate "delete violating pairs"
// until fixpoint, with no counters and no worklists.
func naiveSim(g *graph.Graph, p *pattern.Pattern) map[[2]int32]bool {
	in := make(map[[2]int32]bool)
	for u := 0; u < p.NumNodes(); u++ {
		for v := graph.NodeID(0); v < graph.NodeID(g.NumNodes()); v++ {
			if p.MatchesNode(g, u, v) {
				in[[2]int32{int32(u), v}] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for pr := range in {
			u, v := int(pr[0]), pr[1]
			ok := true
			for _, uc := range p.Out(u) {
				found := false
				for _, w := range g.Out(v) {
					if in[[2]int32{int32(uc), w}] {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				delete(in, pr)
				changed = true
			}
		}
	}
	return in
}

func TestFigure1Simulation(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res := Compute(g, p)
	if !res.Matched {
		t.Fatal("G must match Q")
	}
	pairs := 0
	for _, ok := range res.InSim {
		if ok {
			pairs++
		}
	}
	if got := pairs; got != 15 {
		t.Fatalf("|M(Q,G)| = %d, want 15 (Example 1)", got)
	}
	wantMatches := map[int][]string{
		0: {"PM1", "PM2", "PM3", "PM4"},
		1: {"DB1", "DB2", "DB3"},
		2: {"PRG1", "PRG2", "PRG3", "PRG4"},
		3: {"ST1", "ST2", "ST3", "ST4"},
	}
	for u, names := range wantMatches {
		got := res.MatchesOf(u)
		if len(got) != len(names) {
			t.Fatalf("matches of query node %d = %v, want %v", u, got, names)
		}
		for _, n := range names {
			if !res.Contains(u, id[n]) {
				t.Fatalf("(%d,%s) missing from M(Q,G)", u, n)
			}
		}
	}
	// BA1, UD1, UD2 must not match anything.
	for _, n := range []string{"BA1", "UD1", "UD2"} {
		for u := 0; u < 4; u++ {
			if res.Contains(u, id[n]) {
				t.Fatalf("%s should not match query node %d", n, u)
			}
		}
	}
}

func TestNoMatchGivesEmptyRelation(t *testing.T) {
	g, _ := testutil.Figure1()
	p := pattern.New()
	pm := p.AddNode("PM")
	x := p.AddNode("CEO") // no such label in G
	if err := p.AddEdge(pm, x); err != nil {
		t.Fatal(err)
	}
	res := Compute(g, p)
	if res.Matched {
		t.Fatal("pattern with unmatched node must not match")
	}
	if res.MatchesOf(0) != nil || res.Contains(0, 0) {
		t.Fatal("unmatched result must behave as empty")
	}
}

func TestSingleNodePattern(t *testing.T) {
	g, _ := testutil.Figure1()
	p := pattern.New()
	p.AddNode("PM")
	res := Compute(g, p)
	if !res.Matched || len(res.MatchesOf(0)) != 4 {
		t.Fatalf("single-node pattern: got %v", res.MatchesOf(0))
	}
}

func TestSelfLoopPattern(t *testing.T) {
	// Pattern a→a (self-loop) matches only nodes on an a-labeled cycle.
	b := graph.NewBuilder()
	n0 := b.AddNode("a", nil)
	n1 := b.AddNode("a", nil)
	n2 := b.AddNode("a", nil) // no cycle through n2
	if err := b.AddEdge(n0, n1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(n1, n0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(n2, n0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	p := pattern.New()
	a := p.AddNode("a")
	if err := p.AddEdge(a, a); err != nil {
		t.Fatal(err)
	}
	res := Compute(g, p)
	if !res.Matched {
		t.Fatal("should match")
	}
	got := res.MatchesOf(0)
	if len(got) != 3 {
		// n2 has a successor (n0) that matches a; simulation only requires
		// the child condition, so n2 matches too.
		t.Fatalf("matches = %v, want all three nodes", got)
	}
}

func TestSimulationAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(14)
		g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		res := Compute(g, p)
		want := naiveSim(g, p)

		// Compare pairwise membership of the refinement relation (before the
		// global all-nodes-matched condition).
		for u := 0; u < p.NumNodes(); u++ {
			for v := graph.NodeID(0); v < graph.NodeID(n); v++ {
				id := res.CI.Pair(u, v)
				gotIn := id >= 0 && res.InSim[id]
				if gotIn != want[[2]int32{int32(u), v}] {
					t.Fatalf("trial %d: pair (%d,%d) in=%v want=%v\npattern %s",
						trial, u, v, gotIn, !gotIn, p)
				}
			}
		}
		// Matched flag must equal "every query node has a match".
		wantMatched := true
		for u := 0; u < p.NumNodes(); u++ {
			any := false
			for pr := range want {
				if int(pr[0]) == u {
					any = true
					break
				}
			}
			if !any {
				wantMatched = false
			}
		}
		if res.Matched != wantMatched {
			t.Fatalf("trial %d: Matched=%v want %v", trial, res.Matched, wantMatched)
		}
	}
}

func TestCandidateIndex(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	if ci.NumPairs() != 15 {
		t.Fatalf("candidate pairs = %d, want 15", ci.NumPairs())
	}
	if got := ci.Pair(0, id["PM2"]); got < 0 || ci.U[got] != 0 || ci.V[got] != id["PM2"] {
		t.Fatal("Pair lookup broken")
	}
	if ci.Pair(0, id["DB1"]) != -1 {
		t.Fatal("DB1 is not a PM candidate")
	}
	lo, hi := ci.PairRange(1)
	if hi-lo != 3 {
		t.Fatalf("can(DB) size = %d, want 3", hi-lo)
	}
	// Lists are sorted ascending.
	for u := 0; u < p.NumNodes(); u++ {
		if !sort.SliceIsSorted(ci.Lists[u], func(i, j int) bool { return ci.Lists[u][i] < ci.Lists[u][j] }) {
			t.Fatalf("can(%d) not sorted", u)
		}
	}
}

func TestCuoExample9(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	an := pattern.Analyze(p)
	if got := Cuo(p, ci, an); got != 11 {
		t.Fatalf("C_uo = %d, want 11 (= |can(DB)|+|can(PRG)|+|can(ST)|, Example 9)", got)
	}
}
