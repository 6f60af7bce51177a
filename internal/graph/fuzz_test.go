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

// FuzzCondenseCSR checks the one Tarjan against brute-force reachability.
// The first byte gives n ≤ 64, each following byte pair one edge (source,
// target) modulo n, appended to the source's list in input order, so
// duplicate edges and self-loops occur freely.
func FuzzCondenseCSR(f *testing.F) {
	encode := func(n int, edges [][2]int32) []byte {
		data := []byte{byte(n)}
		for _, e := range edges {
			data = append(data, byte(e[0]), byte(e[1]))
		}
		return data
	}
	// The property tests' fixtures: buildTest's cycle plus isolated node,
	// a chain with a shortcut, a self-loop, and random CSRs.
	f.Add(encode(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 0}}))
	f.Add(encode(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {1, 3}}))
	f.Add(encode(1, [][2]int32{{0, 0}}))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		n := 1 + rng.Intn(40)
		off, adj := randomCSR(rng, n, rng.Intn(4*n))
		var edges [][2]int32
		for v := 0; v < n; v++ {
			for _, w := range adj[off[v]:off[v+1]] {
				edges = append(edges, [2]int32{int32(v), w})
			}
		}
		f.Add(encode(n, edges))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 65
		var edges [][2]int32
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(data[i]) % int32(n), int32(data[i+1]) % int32(n)})
		}
		off, adj := csrOf(n, edges)
		checkCondensation(t, n, off, adj, CondenseCSR(n, off, adj))
	})
}
