package pattern

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadPattern drives Read, the parser of every query body the daemon
// receives. The property: no input panics, and an accepted pattern
// re-encodes to bytes that parse back to the same pattern (labels, predicate
// kinds and values, edges, output), so Write is a fixpoint. The seed corpus runs with go test; go test -fuzz explores from
// it.
func FuzzReadPattern(f *testing.F) {
	p := figure1Pattern(f)
	p.nodes[3].Preds = []Predicate{
		AttrGt("V", 5000), AttrEq("C", "music"), AttrContains("title", "go"),
		AttrLe("age", 100), AttrGe("rate", 2), AttrLt("x", 5), AttrNe("y", 3),
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# a comment\n\nedge 1 0\nnode 1 b R>=2\nnode 0 a *\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, p); err != nil {
			t.Fatalf("accepted pattern does not re-encode: %v", err)
		}
		q, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded pattern rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Write(&second, q); err != nil {
			t.Fatal(err)
		}
		same := q.NumNodes() == p.NumNodes() && q.Output() == p.Output() &&
			reflect.DeepEqual(q.Edges(), p.Edges()) && bytes.Equal(first.Bytes(), second.Bytes())
		for u := 0; same && u < p.NumNodes(); u++ {
			same = q.Label(u) == p.Label(u) && reflect.DeepEqual(q.Preds(u), p.Preds(u))
		}
		if !same {
			t.Fatalf("round trip changed the pattern:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
