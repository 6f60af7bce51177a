package graph

import (
	"bytes"
	"reflect"
	"testing"
)

// buildSnapshotFixture returns a graph exercising every serialized feature:
// several labels, int and string attributes, attribute-free nodes, a node
// with no edges, and a version > 0 from an applied delta.
func buildSnapshotFixture(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("movie", map[string]Value{"R": IntValue(4), "C": StrValue("music")})
	b.AddNode("user", nil)
	b.AddNode("movie", map[string]Value{"V": IntValue(-9000)})
	b.AddNode("tag", nil)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {1, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	d := &Delta{}
	d.AddNode("user", map[string]Value{"name": StrValue("x")})
	d.InsertEdge(4, 0)
	d.DeleteEdge(1, 3)
	g2, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// assertBinaryGraphsEqual compares two graphs structurally: dimensions, version,
// label alphabet, per-node labels, attributes, and both adjacency directions.
func assertBinaryGraphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.m != want.m || got.version != want.version {
		t.Fatalf("shape = (n=%d m=%d v=%d), want (n=%d m=%d v=%d)",
			got.n, got.m, got.version, want.n, want.m, want.version)
	}
	if !reflect.DeepEqual(got.dict.Names(), want.dict.Names()) {
		t.Fatalf("dict = %v, want %v", got.dict.Names(), want.dict.Names())
	}
	for v := NodeID(0); int(v) < want.n; v++ {
		if got.Label(v) != want.Label(v) {
			t.Fatalf("node %d label = %q, want %q", v, got.Label(v), want.Label(v))
		}
		if !reflect.DeepEqual(got.Out(v), want.Out(v)) {
			t.Fatalf("node %d out = %v, want %v", v, got.Out(v), want.Out(v))
		}
		if !reflect.DeepEqual(got.In(v), want.In(v)) {
			t.Fatalf("node %d in = %v, want %v", v, got.In(v), want.In(v))
		}
		gk, wk := got.AttrKeys(v), want.AttrKeys(v)
		if !reflect.DeepEqual(gk, wk) {
			t.Fatalf("node %d attr keys = %v, want %v", v, gk, wk)
		}
		for _, k := range wk {
			gv, _ := got.Attr(v, k)
			wv, _ := want.Attr(v, k)
			if gv != wv {
				t.Fatalf("node %d attr %q = %v, want %v", v, k, gv, wv)
			}
		}
	}
	for _, name := range want.dict.Names() {
		if !reflect.DeepEqual(got.NodesWithLabel(name), want.NodesWithLabel(name)) {
			t.Fatalf("label %q nodes = %v, want %v", name, got.NodesWithLabel(name), want.NodesWithLabel(name))
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	g := buildSnapshotFixture(t)
	data := WriteBinary(g)
	got, err := ReadBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	assertBinaryGraphsEqual(t, got, g)
}

func TestBinaryEmptyGraph(t *testing.T) {
	t.Parallel()
	g := NewBuilder().Build()
	got, err := ReadBinary(WriteBinary(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 || got.Version() != 0 {
		t.Fatalf("empty graph round-trip = n=%d m=%d v=%d", got.NumNodes(), got.NumEdges(), got.Version())
	}
}

func TestBinaryIsDeterministic(t *testing.T) {
	t.Parallel()
	g := buildSnapshotFixture(t)
	if !bytes.Equal(WriteBinary(g), WriteBinary(g)) {
		t.Fatal("same snapshot serialized to different bytes")
	}
}

// TestBinaryRejectsEveryCorruption flips every byte of the file and truncates
// it at every length: the whole-file CRC (or the magic/min-length checks)
// must reject each mutation — a checkpoint either loads exactly or not at all.
func TestBinaryRejectsEveryCorruption(t *testing.T) {
	t.Parallel()
	data := WriteBinary(buildSnapshotFixture(t))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := ReadBinary(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	for n := 0; n < len(data); n++ {
		if _, err := ReadBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestBinaryRoundTripPreservesUpdates checks a recovered snapshot keeps
// working as a base for further deltas: the dictionary and CSR arrays must be
// fully functional, not just readable.
func TestBinaryRoundTripPreservesUpdates(t *testing.T) {
	t.Parallel()
	g := buildSnapshotFixture(t)
	got, err := ReadBinary(WriteBinary(g))
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{}
	d.AddNode("genre", nil)
	d.InsertEdge(NodeID(g.NumNodes()), 0)
	want, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ApplyDelta(got, d)
	if err != nil {
		t.Fatal(err)
	}
	assertBinaryGraphsEqual(t, got2, want)
}
