package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildFrom constructs a graph from an edge list over n unlabeled-ish nodes.
func buildFrom(t *testing.T, n int, edges [][2]NodeID) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("x", nil)
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// applyOne applies a single-delta chain and returns both snapshots' cached
// condensations plus the diff.
func applyOne(t *testing.T, g *Graph, d *Delta) (*Graph, *CondensationDiff) {
	t.Helper()
	g2, _, err := ApplyDeltaVersionStep(g, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g2, DiffCondensation(g.Condensation(), g2.Condensation(), g.NumNodes())
}

// TestDiffCondensationStructurallyInvisible pins the giant-SCC fast path:
// deleting an edge inside a cycle that stays strongly connected dirties
// nothing, and neither does inserting an edge between nodes the condensation
// already ordered.
func TestDiffCondensationStructurallyInvisible(t *testing.T) {
	// 0↔1↔2 strongly connected through redundant edges; 3 hangs below.
	g := buildFrom(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {1, 0}, {2, 3}})

	var d Delta
	d.DeleteEdge(1, 0) // the cycle 0→1→2→0 keeps the SCC intact
	_, diff := applyOne(t, g, &d)
	if diff.NumDirty != 0 {
		t.Fatalf("intra-SCC delete dirtied %d components", diff.NumDirty)
	}

	var d2 Delta
	d2.InsertEdge(0, 2) // 0 and 2 share a component already
	_, diff = applyOne(t, g, &d2)
	if diff.NumDirty != 0 {
		t.Fatalf("intra-SCC insert dirtied %d components", diff.NumDirty)
	}
}

// TestDiffCondensationDetectsChanges pins the three dirty conditions:
// membership changes (splits, merges, appends), successor-set changes, and
// a flipped Nontrivial flag (self-loop churn on a singleton).
func TestDiffCondensationDetectsChanges(t *testing.T) {
	// Split: removing 2→0 breaks the 3-cycle into three singletons.
	g := buildFrom(t, 3, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}})
	var d Delta
	d.DeleteEdge(2, 0)
	g2, diff := applyOne(t, g, &d)
	if diff.NumDirty != g2.Condensation().NumComps {
		t.Fatalf("split: %d dirty, want all %d", diff.NumDirty, g2.Condensation().NumComps)
	}

	// Merge: closing a 2-cycle fuses two singletons.
	g = buildFrom(t, 3, [][2]NodeID{{0, 1}, {1, 2}})
	var dm Delta
	dm.InsertEdge(1, 0)
	g2, diff = applyOne(t, g, &dm)
	merged := g2.Condensation().Comp[0]
	if merged != g2.Condensation().Comp[1] {
		t.Fatal("insert did not merge the components")
	}
	if !diff.DirtyNew[merged] {
		t.Fatal("merged component not dirty")
	}

	// Successor-set change without membership change: a fresh edge to a
	// previously unreachable sink.
	g = buildFrom(t, 3, [][2]NodeID{{0, 1}})
	var ds Delta
	ds.InsertEdge(1, 2)
	g2, diff = applyOne(t, g, &ds)
	c1 := g2.Condensation().Comp[1]
	if !diff.DirtyNew[c1] {
		t.Fatal("component with a new successor not dirty")
	}
	// 0's successor set is unchanged through the matching ({1}'s component
	// matched), so 0 is clean — dirtiness reaches it only through the
	// ancestor closure the consumer computes, never through the diff.
	if c0 := g2.Condensation().Comp[0]; diff.DirtyNew[c0] {
		t.Fatal("component of node 0 dirty despite an unchanged successor set")
	}

	// Nontrivial flip: deleting a singleton's self-loop.
	g = buildFrom(t, 2, [][2]NodeID{{0, 0}, {0, 1}})
	var dl Delta
	dl.DeleteEdge(0, 0)
	g2, diff = applyOne(t, g, &dl)
	if !diff.DirtyNew[g2.Condensation().Comp[0]] {
		t.Fatal("self-loop delete did not dirty the singleton")
	}

	// Appends: the appended node's component is dirty.
	g = buildFrom(t, 2, [][2]NodeID{{0, 1}})
	var da Delta
	da.AddNode("x", nil)
	g2, diff = applyOne(t, g, &da)
	if !diff.DirtyNew[g2.Condensation().Comp[2]] {
		t.Fatal("appended node's component not dirty")
	}
	if diff.NewToOld[g2.Condensation().Comp[2]] != -1 {
		t.Fatal("appended component matched an old one")
	}
}

// TestExpandClosure pins the worklist discipline of the component closure.
func TestExpandClosure(t *testing.T) {
	// Chain 0→1→2→3 with a side edge 1→3.
	adj := [][]int32{{1}, {2, 3}, {3}, {}}
	in := make([]bool, 4)
	got := ExpandComps([]int32{0}, adj, in)
	if want := []int32{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("closure %v, want %v", got, want)
	}
	// Seeding twice does not duplicate.
	in2 := make([]bool, 4)
	got = ExpandComps([]int32{2, 2, 3}, adj, in2)
	if want := []int32{2, 3}; !slices.Equal(got, want) {
		t.Fatalf("closure %v, want %v", got, want)
	}
}

// TestDeltaSummaryEndpoints pins the summary's node span.
func TestDeltaSummaryEndpoints(t *testing.T) {
	g := buildFrom(t, 4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	var d Delta
	d.AddNode("x", nil)
	d.InsertEdge(3, 4)
	d.InsertEdge(0, 4)
	d.InsertEdge(0, 4) // duplicate collapses
	d.DeleteEdge(1, 2)
	d.DeleteEdge(0, 1)
	g2, sum, err := ApplyDeltaVersionStep(g, &d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OldNodes != 4 || sum.NewNodes != 5 {
		t.Fatalf("node counts %+v", sum)
	}
	if g2.NumNodes() != 5 {
		t.Fatalf("nodes %d", g2.NumNodes())
	}
}

// TestDescScopePartialMatchesFull fuzzes the partial recompute directly:
// for random graphs and random affected component sets, Recompute must
// write exactly the full-pass values into the affected rows and leave every
// other row byte-for-byte alone — for both modes.
func TestDescScopePartialMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		b := NewBuilder()
		labels := 3
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)), nil)
		}
		m := 2*n + rng.Intn(4*n)
		for i := 0; i < m; i++ {
			_ = b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		cond := g.Condensation()

		var affected []int32
		for c := 0; c < cond.NumComps; c++ {
			if rng.Intn(3) == 0 {
				affected = append(affected, int32(c))
			}
		}
		if len(affected) == 0 {
			affected = append(affected, 0)
		}
		scope := NewDescScope(cond, affected)
		inAffected := make([]bool, n)
		for _, c := range affected {
			for _, v := range cond.Members[c] {
				inAffected[v] = true
			}
		}

		for _, mode := range []DescMode{DescExact, DescLoose} {
			var ids []LabelID
			for i := 0; i < labels; i++ {
				if id, ok := g.Dict().ID(fmt.Sprintf("L%d", i)); ok {
					ids = append(ids, id)
				}
			}
			full := DescendantLabelCounts(g, ids, mode)
			for li, id := range ids {
				// Poison the rows: affected rows must be overwritten with
				// the full values, unaffected rows must keep the poison.
				row := make([]int32, n)
				for v := range row {
					row[v] = -7
				}
				scope.Recompute(g, id, mode, row)
				for v := 0; v < n; v++ {
					if inAffected[v] && row[v] != full[li][v] {
						t.Fatalf("seed %d mode %v label %d: row %d = %d, want %d",
							seed, mode, id, v, row[v], full[li][v])
					}
					if !inAffected[v] && row[v] != -7 {
						t.Fatalf("seed %d mode %v label %d: unaffected row %d overwritten to %d",
							seed, mode, id, v, row[v])
					}
				}
			}
		}
	}
}
