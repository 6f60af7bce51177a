package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// The decoders of untrusted bytes: ReadBinary loads checkpoint files, Read
// the text bodies of POST /v1/graphs and the daemon's -graph files. The
// property for both: no input panics, and an accepted input re-encodes to
// bytes that decode to the same graph. The seed corpus runs with go test;
// go test -fuzz explores from it.

func FuzzReadBinary(f *testing.F) {
	f.Add(WriteBinary(buildSnapshotFixture(f)))
	f.Add(WriteBinary(buildTest(f)))
	f.Add(WriteBinary(NewBuilder().Build()))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(data)
		if err != nil {
			return
		}
		again, err := ReadBinary(WriteBinary(g))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		assertBinaryGraphsEqual(t, again, g)
	})
}

func FuzzReadGraph(f *testing.F) {
	for _, g := range []*Graph{
		buildSnapshotFixture(f),
		buildTest(f),
		randomGraph(rand.New(rand.NewSource(5)), 12, 30, []string{"x", "y", "z"}),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("# comment\n\nedge 1 0\nnode 1 b k=-3\nnode 0 a k=v\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("accepted graph does not re-encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		assertGraphsEqual(t, g, again)
	})
}
