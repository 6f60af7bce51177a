package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomCSR builds a random adjacency in both AdjFunc and CSR forms.
func randomCSR(rng *rand.Rand, n, m int) ([]int32, []int32) {
	adj := make([][]int32, n)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		w := int32(rng.Intn(n))
		adj[u] = append(adj[u], w) // duplicates and self-loops allowed
	}
	off := make([]int32, n+1)
	var flat []int32
	for v := 0; v < n; v++ {
		flat = append(flat, adj[v]...)
		off[v+1] = int32(len(flat))
	}
	return off, flat
}

// TestCondenseCSRMatchesCondense pins the CSR Tarjan to the callback
// implementation: identical component numbering, condensed DAG, ranks and
// nontrivial flags for the same adjacency in the same order.
func TestCondenseCSRMatchesCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(4 * n)
		off, flat := randomCSR(rng, n, m)
		want := Condense(n, func(v int32, emit func(int32)) {
			for e := off[v]; e < off[v+1]; e++ {
				emit(flat[e])
			}
		})
		got := CondenseCSR(n, off, flat)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (n=%d m=%d): CondenseCSR diverges\nwant %+v\ngot  %+v",
				trial, n, m, want, got)
		}
	}
}
