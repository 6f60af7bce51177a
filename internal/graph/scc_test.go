package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomCSR builds a random adjacency in CSR form with m edges over n nodes;
// duplicate edges and self-loops are allowed.
func randomCSR(rng *rand.Rand, n, m int) ([]int32, []int32) {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return csrOf(n, edges)
}

// csrOf lays an edge list out as a CSR, keeping each node's edges in list
// order.
func csrOf(n int, edges [][2]int32) ([]int32, []int32) {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e[0]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, len(edges))
	next := slices.Clone(off[:n])
	for _, e := range edges {
		adj[next[e[0]]] = e[1]
		next[e[0]]++
	}
	return off, adj
}

// checkCondensation verifies cond against brute-force reachability over the
// CSR (off, adj): the partition into mutually reachable classes, the
// reverse-topological numbering, Members, Nontrivial, and that Succ and Pred
// are exactly the deduplicated cross-component edges and inverses of each
// other.
func checkCondensation(t *testing.T, n int, off, adj []int32, cond *Condensation) {
	t.Helper()
	reach := make([][]bool, n) // reach[u][v]: a path of >= 1 edges
	for u := range reach {
		reach[u] = make([]bool, n)
		stack := []int32{int32(u)}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[off[x]:off[x+1]] {
				if !reach[u][w] {
					reach[u][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	if len(cond.Comp) != n || len(cond.Members) != cond.NumComps ||
		len(cond.Succ) != cond.NumComps || len(cond.Pred) != cond.NumComps ||
		len(cond.Nontrivial) != cond.NumComps {
		t.Fatalf("n=%d: array lengths disagree with NumComps=%d", n, cond.NumComps)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			same := cond.Comp[u] == cond.Comp[v]
			if want := u == v || (reach[u][v] && reach[v][u]); same != want {
				t.Fatalf("same component(%d,%d) = %v, want %v", u, v, same, want)
			}
		}
	}
	seen := 0
	for c, members := range cond.Members {
		if len(members) == 0 {
			t.Fatalf("component %d has no members", c)
		}
		for _, v := range members {
			if cond.Comp[v] != int32(c) {
				t.Fatalf("node %d listed in component %d, Comp says %d", v, c, cond.Comp[v])
			}
		}
		seen += len(members)
		u := members[0]
		if want := len(members) > 1 || reach[u][u]; cond.Nontrivial[c] != want {
			t.Fatalf("component %d nontrivial = %v, want %v", c, cond.Nontrivial[c], want)
		}
	}
	if seen != n {
		t.Fatalf("Members list %d nodes, want %d", seen, n)
	}
	// The condensed edges a brute-force pass derives, per source component.
	want := make([][]bool, cond.NumComps)
	for c := range want {
		want[c] = make([]bool, cond.NumComps)
	}
	for u := 0; u < n; u++ {
		for _, w := range adj[off[u]:off[u+1]] {
			cu, cw := cond.Comp[u], cond.Comp[w]
			if cu != cw {
				if cu < cw {
					t.Fatalf("edge %d->%d runs from component %d up to %d: numbering not reverse-topological", u, w, cu, cw)
				}
				want[cu][cw] = true
			}
		}
	}
	npred := 0
	for c := range cond.Pred {
		npred += len(cond.Pred[c])
		for i, p := range cond.Pred[c] {
			if slices.Contains(cond.Pred[c][:i], p) || !want[p][c] {
				t.Fatalf("Pred[%d] = %v: duplicate or spurious %d", c, cond.Pred[c], p)
			}
		}
	}
	nsucc := 0
	for c := range cond.Succ {
		for i, s := range cond.Succ[c] {
			if slices.Contains(cond.Succ[c][:i], s) || !want[c][s] {
				t.Fatalf("Succ[%d] = %v: duplicate or spurious %d", c, cond.Succ[c], s)
			}
			if !slices.Contains(cond.Pred[s], int32(c)) {
				t.Fatalf("Succ[%d] holds %d but Pred[%d] = %v", c, s, s, cond.Pred[s])
			}
		}
		for s, ok := range want[c] {
			if ok {
				nsucc++
				if !slices.Contains(cond.Succ[c], int32(s)) {
					t.Fatalf("Succ[%d] = %v misses %d", c, cond.Succ[c], s)
				}
			}
		}
	}
	if npred != nsucc {
		t.Fatalf("Pred holds %d edges, Succ %d", npred, nsucc)
	}
}

func TestCondenseAgainstReachabilityReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		off, adj := randomCSR(rng, n, rng.Intn(4*n))
		checkCondensation(t, n, off, adj, CondenseCSR(n, off, adj))
	}
}
