package pattern

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"divtopk/internal/graph"
)

// figure1Pattern builds the paper's Fig. 1(a) pattern Q:
// PM* -> DB, PM -> PRG, DB <-> PRG (cycle), DB -> ST, PRG -> ST.
func figure1Pattern(t testing.TB) *Pattern {
	t.Helper()
	p := New()
	pm := p.AddNode("PM")
	db := p.AddNode("DB")
	prg := p.AddNode("PRG")
	st := p.AddNode("ST")
	for _, e := range [][2]int{{pm, db}, {pm, prg}, {db, prg}, {prg, db}, {db, st}, {prg, st}} {
		if err := p.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetOutput(pm); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure1PatternStructure(t *testing.T) {
	p := figure1Pattern(t)
	if p.NumNodes() != 4 || p.NumEdges() != 6 || p.Size() != 10 {
		t.Fatalf("sizes: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if p.IsDAG() {
		t.Fatal("Q has a DB<->PRG cycle; IsDAG must be false")
	}
	a := Analyze(p)
	// Q_SCC: {PM}, {DB,PRG}, {ST}. ST rank 0, DB/PRG rank 1, PM rank 2.
	if a.Rank[0] != 2 || a.Rank[1] != 1 || a.Rank[2] != 1 || a.Rank[3] != 0 {
		t.Fatalf("ranks = %v", a.Rank)
	}
	if a.Cond.Comp[1] != a.Cond.Comp[2] {
		t.Fatal("DB and PRG must share an SCC")
	}
	if !a.Cond.Nontrivial[a.Cond.Comp[1]] {
		t.Fatal("DB/PRG SCC must be nontrivial")
	}
	if a.Cond.Nontrivial[a.Cond.Comp[0]] || a.Cond.Nontrivial[a.Cond.Comp[3]] {
		t.Fatal("PM and ST SCCs must be trivial")
	}
	// Descendants of PM: DB, PRG, ST but not PM.
	want := []bool{false, true, true, true}
	for u, w := range want {
		if a.OutputDesc[u] != w {
			t.Fatalf("OutputDesc[%d] = %v, want %v", u, a.OutputDesc[u], w)
		}
	}
	if len(a.DescLabels) != 3 {
		t.Fatalf("DescLabels = %v", a.DescLabels)
	}
}

// TestAnalyzeRanks pins the topological ranks of §4 on Q_SCC: 0 for a leaf
// unit, otherwise 1 + the largest rank of its successors, and every query
// node carries its unit's rank — on a chain and on random patterns with
// cycles and self-loops.
func TestAnalyzeRanks(t *testing.T) {
	chain := New()
	for i := 0; i < 4; i++ {
		chain.AddNode("a")
	}
	for i := 0; i < 3; i++ {
		if err := chain.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if r := Analyze(chain).Rank; !slices.Equal(r, []int32{3, 2, 1, 0}) {
		t.Fatalf("chain ranks = %v, want [3 2 1 0]", r)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := New()
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			p.AddNode("a")
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			_ = p.AddEdge(rng.Intn(n), rng.Intn(n)) // duplicates are rejected
		}
		a := Analyze(p)
		cond := a.Cond
		for c, succ := range cond.Succ {
			want := int32(0)
			for _, s := range succ {
				want = max(want, a.UnitRank[s]+1)
			}
			if a.UnitRank[c] != want {
				t.Fatalf("trial %d (%s): unit %d rank %d, want %d", trial, p, c, a.UnitRank[c], want)
			}
		}
		for u := 0; u < n; u++ {
			if a.Rank[u] != a.UnitRank[cond.Comp[u]] {
				t.Fatalf("trial %d (%s): node %d rank %d, unit rank %d", trial, p, u, a.Rank[u], a.UnitRank[cond.Comp[u]])
			}
			for _, w := range p.Out(u) {
				if cond.Comp[u] != cond.Comp[w] && a.Rank[u] <= a.Rank[w] {
					t.Fatalf("trial %d (%s): edge %d->%d across units, ranks %d <= %d", trial, p, u, w, a.Rank[u], a.Rank[w])
				}
			}
		}
	}
}

func TestOutputOnCycleIsOwnDescendant(t *testing.T) {
	p := New()
	a := p.AddNode("A")
	b := p.AddNode("B")
	if err := p.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(b, a); err != nil {
		t.Fatal(err)
	}
	an := Analyze(p)
	if !an.OutputDesc[a] || !an.OutputDesc[b] {
		t.Fatal("output on a cycle is its own descendant")
	}
}

func TestValidateErrors(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("empty pattern must not validate")
	}
	p := New()
	p.AddNode("")
	if err := p.Validate(); err == nil {
		t.Fatal("empty label must not validate")
	}
	p2 := New()
	p2.AddNode("a", Predicate{Attr: "", Op: OpEq, Val: graph.IntValue(1)})
	if err := p2.Validate(); err == nil {
		t.Fatal("empty predicate attr must not validate")
	}
	p3 := New()
	p3.AddNode("a")
	if err := p3.AddEdge(0, 1); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := p3.AddEdge(0, 0); err != nil {
		t.Fatal("self-loop should be allowed")
	}
	if err := p3.AddEdge(0, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := p3.SetOutput(9); err == nil {
		t.Fatal("out-of-range output accepted")
	}
}

func TestPredicateEval(t *testing.T) {
	b := graph.NewBuilder()
	v := b.AddNode("video", map[string]graph.Value{
		"C": graph.StrValue("music"),
		"R": graph.IntValue(4),
	})
	g := b.Build()

	cases := []struct {
		pred Predicate
		want bool
	}{
		{AttrEq("C", "music"), true},
		{AttrEq("C", "comedy"), false},
		{AttrNe("C", "comedy"), true},
		{AttrNe("C", "music"), false},
		{AttrGt("R", 2), true},
		{AttrGt("R", 4), false},
		{AttrGe("R", 4), true},
		{AttrLt("R", 5), true},
		{AttrLe("R", 3), false},
		{AttrContains("C", "usi"), true},
		{AttrContains("C", "xyz"), false},
		{AttrEq("missing", "x"), false},
		{AttrGt("C", 2), false},         // kind mismatch
		{AttrNe("R", "music"), false},   // kind mismatch on Ne
		{AttrContains("R", "4"), false}, // contains on int attr
	}
	for _, c := range cases {
		if got := c.pred.Eval(g, v); got != c.want {
			t.Errorf("%s = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestMatchesNode(t *testing.T) {
	b := graph.NewBuilder()
	v1 := b.AddNode("video", map[string]graph.Value{"R": graph.IntValue(4)})
	v2 := b.AddNode("video", map[string]graph.Value{"R": graph.IntValue(1)})
	v3 := b.AddNode("channel", map[string]graph.Value{"R": graph.IntValue(9)})
	g := b.Build()

	p := New()
	u := p.AddNode("video", AttrGt("R", 2))
	if !p.MatchesNode(g, u, v1) {
		t.Fatal("v1 should match")
	}
	if p.MatchesNode(g, u, v2) {
		t.Fatal("v2 fails the predicate")
	}
	if p.MatchesNode(g, u, v3) {
		t.Fatal("v3 has the wrong label")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := figure1Pattern(t)
	q := p.Clone()
	if q.String() != p.String() {
		t.Fatalf("clone differs: %s vs %s", q, p)
	}
	q.AddNode("X")
	if q.NumNodes() == p.NumNodes() {
		t.Fatal("clone not independent")
	}
}

func TestStringRendering(t *testing.T) {
	p := New()
	p.AddNode("A", AttrGt("R", 2))
	p.AddNode("B")
	if err := p.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"0:A*", "[R>2]", "1:B", "0->1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestIORoundtrip(t *testing.T) {
	p := figure1Pattern(t)
	// Add predicates to exercise serialization of all operators.
	p.nodes[3].Preds = []Predicate{
		AttrGt("V", 5000), AttrEq("C", "music"), AttrContains("title", "go"),
		AttrLe("age", 100), AttrGe("rate", 2), AttrLt("x", 5), AttrNe("y", 3),
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatalf("%v\ninput:\n%s", err, buf.String())
	}
	if q.String() != p.String() {
		t.Fatalf("roundtrip mismatch:\n%s\n%s", p, q)
	}
	if q.Output() != p.Output() {
		t.Fatal("output node lost in roundtrip")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no output", "node 0 a\n"},
		{"two outputs", "node 0 a *\nnode 1 b *\n"},
		{"bad predicate", "node 0 a !!\n"},
		{"sparse", "node 1 a *\n"},
		{"dup node", "node 0 a *\nnode 0 b\n"},
		{"bad edge", "node 0 a *\nedge 0 7\n"},
		{"bad directive", "wat\n"},
		{"edge arity", "node 0 a *\nedge 0\n"},
		{"predicate no value", "node 0 a * R>\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParsePredicateForms(t *testing.T) {
	cases := []struct {
		in   string
		op   Op
		kind graph.ValueKind
	}{
		{"R>2", OpGt, graph.KindInt},
		{"R>=2", OpGe, graph.KindInt},
		{"R<2", OpLt, graph.KindInt},
		{"R<=2", OpLe, graph.KindInt},
		{"C=music", OpEq, graph.KindString},
		{"C!=x", OpNe, graph.KindString},
		{"t~sub", OpContains, graph.KindString},
		{`C="quoted"`, OpEq, graph.KindString},
	}
	for _, c := range cases {
		pr, err := ParsePredicate(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if pr.Op != c.op || pr.Val.Kind != c.kind {
			t.Fatalf("%s parsed to %+v", c.in, pr)
		}
	}
	if pr, err := ParsePredicate(`C="quoted"`); err != nil || pr.Val.Str != "quoted" {
		t.Fatalf("quotes not stripped: %+v %v", pr, err)
	}
	if _, err := ParsePredicate("nodelim"); err == nil {
		t.Fatal("predicate without operator accepted")
	}
}

// TestWriteKeepsStringKinds pins that a string value which is empty or reads
// as an integer is written quoted, so it reads back a string: C="12" and
// C=12 are different patterns, and their texts (the cache key) differ too.
func TestWriteKeepsStringKinds(t *testing.T) {
	for _, pr := range []Predicate{AttrEq("C", "12"), AttrNe("C", ""), AttrEq("C", 12)} {
		p := New()
		p.AddNode("a", pr)
		if err := p.SetOutput(0); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatalf("%v: %v", pr, err)
		}
		if got := q.Preds(0); len(got) != 1 || got[0] != pr {
			t.Fatalf("%v read back as %v", pr, got)
		}
	}
	if AttrEq("C", "12").String() == AttrEq("C", 12).String() {
		t.Fatal("string and integer values render alike")
	}
}
