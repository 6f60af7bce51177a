package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// buildTest constructs a small labeled graph:
//
//	0:a -> 1:b -> 2:c
//	0:a -> 2:c
//	2:c -> 0:a   (cycle 0->1->2->0 and 0->2->0)
//	3:b (isolated)
func buildTest(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("a", map[string]Value{"x": IntValue(7)})
	n1 := b.AddNode("b", nil)
	n2 := b.AddNode("c", map[string]Value{"name": StrValue("last")})
	b.AddNode("b", nil)
	for _, e := range [][2]NodeID{{a, n1}, {a, n2}, {n1, n2}, {n2, a}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	g := buildTest(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 || g.Size() != 8 {
		t.Fatalf("sizes wrong: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Label(0) != "a" || g.Label(1) != "b" || g.Label(3) != "b" {
		t.Fatal("labels wrong")
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := g.In(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("In(2) = %v", got)
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 0 {
		t.Fatal("isolated node should have degree 0")
	}
	if v, ok := g.Attr(0, "x"); !ok || v.Int != 7 {
		t.Fatal("int attribute lost")
	}
	if v, ok := g.Attr(2, "name"); !ok || v.Str != "last" {
		t.Fatal("string attribute lost")
	}
	if _, ok := g.Attr(1, "x"); ok {
		t.Fatal("phantom attribute")
	}
	bs := g.NodesWithLabel("b")
	if len(bs) != 2 || bs[0] != 1 || bs[1] != 3 {
		t.Fatalf("NodesWithLabel(b) = %v", bs)
	}
	if g.NodesWithLabel("zzz") != nil {
		t.Fatal("unknown label should give nil")
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 1) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDedupesEdges(t *testing.T) {
	b := NewBuilder()
	x := b.AddNode("a", nil)
	y := b.AddNode("a", nil)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(x, y); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("expected dedup to 1 edge, got %d", g.NumEdges())
	}
}

func TestBuilderRejectsBadEdge(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", nil)
	if err := b.AddEdge(0, 1); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestSelfLoopKept(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("a", nil)
	if err := b.AddEdge(v, v); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 || !g.HasEdge(v, v) {
		t.Fatal("self-loop lost")
	}
	cond := g.Condensation()
	if !cond.Nontrivial[cond.Comp[v]] {
		t.Fatal("self-loop SCC should be nontrivial")
	}
}

func TestCondenseSmall(t *testing.T) {
	g := buildTest(t)
	cond := g.Condensation()
	// Nodes 0,1,2 form one SCC; node 3 is its own.
	if cond.NumComps != 2 {
		t.Fatalf("NumComps = %d, want 2", cond.NumComps)
	}
	if cond.Comp[0] != cond.Comp[1] || cond.Comp[1] != cond.Comp[2] {
		t.Fatal("cycle nodes not in one SCC")
	}
	if cond.Comp[3] == cond.Comp[0] {
		t.Fatal("isolated node merged into cycle SCC")
	}
	if !cond.Nontrivial[cond.Comp[0]] || cond.Nontrivial[cond.Comp[3]] {
		t.Fatal("Nontrivial flags wrong")
	}
	// Both SCCs are sinks in the condensation.
	if len(cond.Succ[cond.Comp[0]]) != 0 || len(cond.Succ[cond.Comp[3]]) != 0 {
		t.Fatal("condensed DAG wrong")
	}
}

// randomGraph builds a random digraph for property tests.
func randomGraph(rng *rand.Rand, n, m int, labels []string) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(labels[rng.Intn(len(labels))], nil)
	}
	for i := 0; i < m; i++ {
		// Errors impossible: endpoints in range.
		_ = b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// reachClosure computes reachability (>=1 step) by naive BFS per node.
func reachClosure(g *Graph) [][]bool {
	n := g.NumNodes()
	r := make([][]bool, n)
	for v := 0; v < n; v++ {
		r[v] = make([]bool, n)
		var stack []NodeID
		for _, w := range g.Out(NodeID(v)) {
			if !r[v][w] {
				r[v][w] = true
				stack = append(stack, w)
			}
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Out(x) {
				if !r[v][w] {
					r[v][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return r
}

// TestCondensationConcurrentFirstUse: a snapshot is shared by concurrent
// queries, so its lazily cached condensation must be filled exactly once —
// every concurrent first caller gets the same one, and (under -race) no
// caller reads the cache while another writes it.
func TestCondensationConcurrentFirstUse(t *testing.T) {
	const callers = 4
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		g := randomGraph(rng, 3000, 9000, []string{"a", "b"})
		start := make(chan struct{})
		got := make([]*Condensation, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = g.Condensation()
			}()
		}
		close(start)
		wg.Wait()
		for i := range got {
			if got[i] != got[0] || got[i] != g.Condensation() {
				t.Fatalf("round %d: concurrent first callers got different condensations", round)
			}
		}
	}
}

func mustEdge(t *testing.T, b *Builder, u, v NodeID) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestDescendantLabelCountsExactSmall(t *testing.T) {
	g := buildTest(t) // cycle {0,1,2}, labels a,b,c; node 3:b isolated
	la, _ := g.Dict().ID("a")
	lb, _ := g.Dict().ID("b")
	lc, _ := g.Dict().ID("c")
	counts := DescendantLabelCounts(g, []LabelID{la, lb, lc}, DescExact)
	// All of 0,1,2 reach {0,1,2} (cycle): one a, one b, one c each.
	for _, v := range []NodeID{0, 1, 2} {
		if counts[0][v] != 1 || counts[1][v] != 1 || counts[2][v] != 1 {
			t.Fatalf("cycle node %d counts = a:%d b:%d c:%d, want 1,1,1",
				v, counts[0][v], counts[1][v], counts[2][v])
		}
	}
	// Node 3 reaches nothing.
	if counts[0][3] != 0 || counts[1][3] != 0 || counts[2][3] != 0 {
		t.Fatal("isolated node should have zero counts")
	}
}

func TestDescendantLabelCountsPropertyExactVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(18)
		g := randomGraph(rng, n, rng.Intn(3*n), labels)
		closure := reachClosure(g)
		var ids []LabelID
		for _, l := range labels {
			id := g.Dict().Intern(l)
			ids = append(ids, id)
		}
		exact := DescendantLabelCounts(g, ids, DescExact)
		loose := DescendantLabelCounts(g, ids, DescLoose)
		for li, l := range ids {
			for v := 0; v < n; v++ {
				want := int32(0)
				for w := 0; w < n; w++ {
					if closure[v][w] && g.LabelIDOf(NodeID(w)) == l {
						want++
					}
				}
				if exact[li][v] != want {
					t.Fatalf("trial %d: exact[%s][%d] = %d, want %d",
						trial, labels[li], v, exact[li][v], want)
				}
				if loose[li][v] < want {
					t.Fatalf("trial %d: loose bound %d below exact %d", trial, loose[li][v], want)
				}
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTest(t)
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 || s.Labels != 3 {
		t.Fatalf("stats sizes wrong: %+v", s)
	}
	if s.IsDAG {
		t.Fatal("graph with cycle reported as DAG")
	}
	if s.LargestSCC != 3 || s.SCCs != 2 {
		t.Fatalf("SCC stats wrong: %+v", s)
	}
	if s.LabelHistogram["b"] != 2 {
		t.Fatal("label histogram wrong")
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestDictSharing(t *testing.T) {
	d := NewDict()
	b1 := NewBuilderWithDict(d)
	b1.AddNode("x", nil)
	b2 := NewBuilderWithDict(d)
	b2.AddNode("y", nil)
	b2.AddNode("x", nil)
	g1, g2 := b1.Build(), b2.Build()
	if g1.LabelIDOf(0) != g2.LabelIDOf(1) {
		t.Fatal("shared dict should intern x identically")
	}
	if d.Size() != 2 {
		t.Fatalf("dict size = %d, want 2", d.Size())
	}
	if name := d.Name(g1.LabelIDOf(0)); name != "x" {
		t.Fatalf("Name = %q", name)
	}
}
