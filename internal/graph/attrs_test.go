package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomAttrs returns nil, an empty map or a few int and string attributes.
func randomAttrs(rng *rand.Rand) map[string]Value {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return map[string]Value{}
	}
	m := make(map[string]Value)
	for i := 1 + rng.Intn(4); i > 0; i-- {
		k := fmt.Sprintf("k%d", rng.Intn(6))
		if rng.Intn(2) == 0 {
			m[k] = IntValue(rng.Int63n(1000) - 500)
		} else {
			// Few enough distinct strings to be shared inside a chunk, and
			// some chunks with more than attrStrScan of them.
			m[k] = StrValue(fmt.Sprintf("s%d", rng.Intn(3*attrStrScan)))
		}
	}
	return m
}

// checkAttrs compares every accessor of g against the maps it was built from.
func checkAttrs(t *testing.T, label string, g *Graph, want []map[string]Value) {
	t.Helper()
	if g.NumNodes() != len(want) {
		t.Fatalf("%s: %d nodes, want %d", label, g.NumNodes(), len(want))
	}
	for v, m := range want {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got := g.AttrKeys(NodeID(v))
		if len(keys) == 0 {
			if got != nil {
				t.Fatalf("%s: node %d has keys %v, want none", label, v, got)
			}
		} else if !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s: node %d keys %v, want %v", label, v, got, keys)
		}
		for _, k := range keys {
			if val, ok := g.Attr(NodeID(v), k); !ok || val != m[k] {
				t.Fatalf("%s: node %d attr %q = %v, %v; want %v", label, v, k, val, ok, m[k])
			}
		}
		if _, ok := g.Attr(NodeID(v), "absent"); ok {
			t.Fatalf("%s: node %d has an attribute nobody set", label, v)
		}
		if _, ok := m["k0"]; !ok {
			if _, ok := g.Attr(NodeID(v), "k0"); ok {
				t.Fatalf("%s: node %d answers for another node's key", label, v)
			}
		}
	}
}

// TestAttrTableMatchesMaps builds graphs spanning several chunks, extends
// them through chains of deltas and checks every node's attributes against
// the maps they came from, after every step and through the binary codec.
func TestAttrTableMatchesMaps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Sizes on both sides of the chunk boundaries.
		n := []int{0, 1, attrChunkSize - 1, attrChunkSize, attrChunkSize + 1, 2*attrChunkSize + 37}[seed-1]
		b := NewBuilder()
		var want []map[string]Value
		for i := 0; i < n; i++ {
			m := randomAttrs(rng)
			b.AddNode("a", m)
			want = append(want, m)
		}
		g := b.Build()
		checkAttrs(t, fmt.Sprintf("seed %d built", seed), g, want)
		for step := 0; step < 30; step++ {
			var d Delta
			for i := rng.Intn(4); i > 0; i-- {
				if rng.Intn(8) == 0 { // now and then a batch that crosses a chunk
					for j := 0; j < attrChunkSize; j++ {
						m := randomAttrs(rng)
						d.AddNode("a", m)
						want = append(want, m)
					}
				}
				m := randomAttrs(rng)
				d.AddNode("a", m)
				want = append(want, m)
			}
			if d.Empty() {
				d.AddNode("a", nil)
				want = append(want, nil)
			}
			g2, err := ApplyDelta(g, &d)
			if err != nil {
				t.Fatal(err)
			}
			checkAttrs(t, fmt.Sprintf("seed %d step %d", seed, step), g2, want)
			g = g2
		}
		back, err := ReadBinary(WriteBinary(g))
		if err != nil {
			t.Fatal(err)
		}
		checkAttrs(t, fmt.Sprintf("seed %d reread", seed), back, want)
	}
}

// TestAttrTableForkedLineages applies two different deltas to the same
// snapshot: both successors extend the last chunk, neither may see the
// other's nodes, and the predecessor must stay as it was.
func TestAttrTableForkedLineages(t *testing.T) {
	b := NewBuilder()
	var base []map[string]Value
	for i := 0; i < attrChunkSize+10; i++ {
		m := map[string]Value{"id": IntValue(int64(i)), "tag": StrValue("base")}
		b.AddNode("a", m)
		base = append(base, m)
	}
	g := b.Build()
	fork := func(tag string, count int) (*Graph, []map[string]Value) {
		var d Delta
		want := append([]map[string]Value(nil), base...)
		for i := 0; i < count; i++ {
			m := map[string]Value{"tag": StrValue(tag), "n": IntValue(int64(i)), tag: IntValue(1)}
			d.AddNode("a", m)
			want = append(want, m)
		}
		g2, err := ApplyDelta(g, &d)
		if err != nil {
			t.Fatal(err)
		}
		return g2, want
	}
	left, wantLeft := fork("left", 5)
	right, wantRight := fork("right", 9)
	checkAttrs(t, "left", left, wantLeft)
	checkAttrs(t, "right", right, wantRight)
	checkAttrs(t, "base after the forks", g, base)
	// A second generation on one side must not disturb the other either.
	var d Delta
	d.AddNode("a", map[string]Value{"tag": StrValue("left2")})
	left2, err := ApplyDelta(left, &d)
	if err != nil {
		t.Fatal(err)
	}
	checkAttrs(t, "left2", left2, append(wantLeft, d.NodeAppends[0].Attrs))
	checkAttrs(t, "left after left2", left, wantLeft)
	checkAttrs(t, "right after left2", right, wantRight)
}

// TestAttrTableIsCheapToCollect holds the table to the reason it exists: what
// the collector has to visit grows with the number of chunks, not of nodes —
// three arrays per chunk, and among them only the chunk's distinct string
// values hold pointers.
func TestAttrTableIsCheapToCollect(t *testing.T) {
	const n = 40 * attrChunkSize
	b := NewBuilder()
	cats := []string{"music", "sports", "news"}
	for i := 0; i < n; i++ {
		b.AddNode("a", map[string]Value{"C": StrValue(cats[i%3]), "V": IntValue(int64(i)), "R": IntValue(int64(i % 5))})
	}
	tbl := b.Build().attrs
	if len(tbl.chunks) != n/attrChunkSize {
		t.Fatalf("%d chunks for %d nodes", len(tbl.chunks), n)
	}
	for i, c := range tbl.chunks {
		if len(c.ents) != 3*attrChunkSize || len(c.off) != attrChunkSize+1 {
			t.Fatalf("chunk %d: %d entries, %d offsets", i, len(c.ents), len(c.off))
		}
		if len(c.strs) != len(cats) {
			t.Fatalf("chunk %d keeps %d strings for %d distinct values", i, len(c.strs), len(cats))
		}
	}
	if pointerful := reflect.TypeOf(attrEnt{}); pointerful.Kind() != reflect.Struct {
		t.Fatal("attrEnt is not a struct")
	} else {
		for i := 0; i < pointerful.NumField(); i++ {
			switch pointerful.Field(i).Type.Kind() {
			case reflect.Int32, reflect.Int64, reflect.Uint8:
			default:
				t.Fatalf("attrEnt.%s is a %s: entries must stay pointer-free", pointerful.Field(i).Name, pointerful.Field(i).Type)
			}
		}
	}
}

// TestBuilderSetAttrAfterAddNode covers the builder's late path: SetAttr on
// nodes that were added with, without and with other attributes.
func TestBuilderSetAttrAfterAddNode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder()
	var want []map[string]Value
	for i := 0; i < attrChunkSize+50; i++ {
		m := randomAttrs(rng)
		b.AddNode("a", m)
		cp := make(map[string]Value, len(m))
		for k, v := range m {
			cp[k] = v
		}
		want = append(want, cp)
	}
	for i := 0; i < 200; i++ {
		v := rng.Intn(len(want))
		k, val := fmt.Sprintf("k%d", rng.Intn(8)), IntValue(int64(i))
		if err := b.SetAttr(NodeID(v), k, val); err != nil {
			t.Fatal(err)
		}
		want[v][k] = val
	}
	if err := b.SetAttr(NodeID(len(want)), "k", IntValue(1)); err == nil {
		t.Fatal("SetAttr on a node that was never added succeeded")
	}
	checkAttrs(t, "after SetAttr", b.Build(), want)
}
