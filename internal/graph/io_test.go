package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestIORoundtrip(t *testing.T) {
	g := buildTest(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func assertGraphsEqual(t *testing.T, g, g2 *Graph) {
	t.Helper()
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch: %d/%d vs %d/%d",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		if g.Label(v) != g2.Label(v) {
			t.Fatalf("label mismatch at %d", v)
		}
		a, b := g.Out(v), g2.Out(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
		for _, k := range g.AttrKeys(v) {
			want, _ := g.Attr(v, k)
			got, ok := g2.Attr(v, k)
			if !ok || got != want {
				t.Fatalf("attr %s mismatch at %d: %v vs %v", k, v, got, want)
			}
		}
	}
}

func TestIORoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(4*n), []string{"x", "y", "z"})
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertGraphsEqual(t, g, g2)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad directive", "frob 1 2\n"},
		{"node missing label", "node 0\n"},
		{"bad node id", "node x a\n"},
		{"negative node id", "node -1 a\n"},
		{"duplicate node", "node 0 a\nnode 0 b\n"},
		{"edge arity", "edge 0\n"},
		{"edge bad src", "node 0 a\nedge x 0\n"},
		{"edge unknown node", "node 0 a\nedge 0 1\n"},
		{"sparse ids", "node 0 a\nnode 2 b\n"},
		{"bad attr", "node 0 a =v\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadEqualsInLabelsAndValues: a label is a whole field and an
// attribute splits at its first '=', so '=' inside either reads unchanged
// and survives Write and Read again.
func TestReadEqualsInLabelsAndValues(t *testing.T) {
	cases := []struct {
		name, in, label, key, value string
	}{
		{"label with '='", "node 0 a=b\n", "a=b", "", ""},
		{"attr value with '='", "node 0 a k=v=w\n", "a", "k", "v=w"},
	}
	for _, c := range cases {
		g, err := Read(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.Label(0) != c.label {
			t.Errorf("%s: label %q, want %q", c.name, g.Label(0), c.label)
		}
		if c.key != "" {
			if v, _ := g.Attr(0, c.key); v.Kind != KindString || v.Str != c.value {
				t.Errorf("%s: %s = %+v, want %q", c.name, c.key, v, c.value)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertGraphsEqual(t, g, again)
	}
}

func TestReadEmptyAndComments(t *testing.T) {
	g, err := Read(strings.NewReader("# nothing but comments\n\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty input should give empty graph")
	}
}

func TestReadAttrTypes(t *testing.T) {
	g, err := Read(strings.NewReader("node 0 video C=music V=5000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g.Attr(0, "C"); v.Kind != KindString || v.Str != "music" {
		t.Fatalf("C = %+v", v)
	}
	if v, _ := g.Attr(0, "V"); v.Kind != KindInt || v.Int != 5000 {
		t.Fatalf("V = %+v", v)
	}
}

func TestWriteRejectsUnencodableValues(t *testing.T) {
	build := func(key string, val Value) *Graph {
		b := NewBuilder()
		b.AddNode("a", map[string]Value{key: val})
		return b.Build()
	}
	cases := []struct {
		name string
		g    *Graph
	}{
		{"value with space", build("k", StrValue("two words"))},
		{"value with newline", build("k", StrValue("a\nb"))},
		{"value with unicode space", build("k", StrValue("a\u00a0b"))},
		{"value re-parses as int", build("k", StrValue("42"))},
		{"key with space", build("bad key", IntValue(1))},
		{"key with equals", build("k=v", IntValue(1))},
		{"empty key", build("", IntValue(1))},
		{"label with space", func() *Graph {
			b := NewBuilder()
			b.AddNode("two words", nil)
			return b.Build()
		}()},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, c.g); err == nil {
			t.Errorf("%s: Write succeeded, want error", c.name)
		}
	}
}

func TestWriteAllowsEncodableValues(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", map[string]Value{
		"s":      StrValue("music"),
		"empty":  StrValue(""),
		"i":      IntValue(-7),
		"mixed":  StrValue("4x2"),
		"equals": StrValue("a=b"),
		"url":    StrValue("http://h/?a=b"),
	})
	b.AddNode("=0", nil)
	g := b.Build()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestReadEdgeRangeErrorHasLineNumber(t *testing.T) {
	cases := []struct {
		name, in, wantLine string
	}{
		{"edge after nodes", "node 0 a\nnode 1 b\nedge 1 5\n", "line 3"},
		{"edge before nodes", "edge 3 0\nnode 0 a\n", "line 1"},
		{"edge with no nodes", "edge 0 0\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantLine) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantLine)
		}
	}
}

// TestIORoundtripPropertyAttrs is the randomized Write/Read round-trip
// property test over graphs with typed attributes: every graph Write
// accepts must come back from Read structurally identical, attributes and
// value types included.
func TestIORoundtripPropertyAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	strValues := []string{"music", "film_clip", "x", "", "4x2", "a-b.c", "#tag"}
	keys := []string{"C", "R", "V", "year", "group"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		b := NewBuilder()
		labels := []string{"video", "user", "paper"}
		for i := 0; i < n; i++ {
			label := labels[rng.Intn(len(labels))]
			attrs := make(map[string]Value)
			for _, k := range keys {
				switch rng.Intn(3) {
				case 0:
					attrs[k] = IntValue(int64(rng.Intn(10000) - 5000))
				case 1:
					attrs[k] = StrValue(strValues[rng.Intn(len(strValues))])
				}
			}
			b.AddNode(label, attrs)
		}
		for i := 0; i < rng.Intn(3*n); i++ {
			_ = b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertGraphsEqual(t, g, g2)
		// assertGraphsEqual walks g's attrs; also check g2 gained none.
		for v := NodeID(0); v < NodeID(n); v++ {
			if len(g2.AttrKeys(v)) != len(g.AttrKeys(v)) {
				t.Fatalf("trial %d: node %d attr count changed", trial, v)
			}
		}
	}
}
