package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// mergeTestGraph builds the small fixed graph the directed merge cases run
// against: A→B, B→C, A→C.
func mergeTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("A", nil)
	bb := b.AddNode("B", nil)
	c := b.AddNode("C", nil)
	for _, e := range [][2]NodeID{{a, bb}, {bb, c}, {a, c}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestDeltaMergeDuplicateInsertNoop(t *testing.T) {
	g := mergeTestGraph(t)
	d := &Delta{}
	var o1, o2 Delta
	o1.InsertEdge(2, 0)
	o2.InsertEdge(2, 0) // same edge again, from a later request
	o2.InsertEdge(2, 1)
	if err := d.Merge(g, &o1); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(g, &o2); err != nil {
		t.Fatal(err)
	}
	if len(d.EdgeInserts) != 2 {
		t.Fatalf("duplicate insert not deduplicated: %v", d.EdgeInserts)
	}
	// Inserting an edge the base graph already has stays a no-op through
	// the merge, exactly as it is for a standalone delta.
	var o3 Delta
	o3.InsertEdge(0, 1)
	if err := d.Merge(g, &o3); err != nil {
		t.Fatal(err)
	}
	g2, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 5 || !g2.HasEdge(2, 0) || !g2.HasEdge(2, 1) {
		t.Fatalf("merged apply produced wrong edge set: %d edges", g2.NumEdges())
	}
}

func TestDeltaMergeInsertThenDeleteCancels(t *testing.T) {
	g := mergeTestGraph(t)

	// The inserted edge is new: the delete cancels it outright.
	d := &Delta{}
	var ins, del Delta
	ins.InsertEdge(2, 0)
	del.DeleteEdge(2, 0)
	if err := d.Merge(g, &ins); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(g, &del); err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("insert-then-delete did not cancel: %+v", d)
	}

	// The inserted edge already exists in the base: the insert was a no-op
	// there, so the delete must survive as a delete of the base edge.
	d = &Delta{}
	var ins2, del2 Delta
	ins2.InsertEdge(0, 1)
	del2.DeleteEdge(0, 1)
	if err := d.Merge(g, &ins2); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(g, &del2); err != nil {
		t.Fatal(err)
	}
	if len(d.EdgeInserts) != 0 || len(d.EdgeDeletes) != 1 {
		t.Fatalf("delete of a base edge lost through cancellation: %+v", d)
	}
	g2, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if g2.HasEdge(0, 1) {
		t.Fatal("base edge survived the merged delete")
	}

	// Deleting an edge that neither base nor the pending inserts contain is
	// the same lost-sync error a standalone delta gets.
	var bogus Delta
	bogus.DeleteEdge(2, 1)
	if err := d.Merge(g, &bogus); err == nil {
		t.Fatal("merge accepted a delete of a nonexistent edge")
	}
	// The failed merge left d untouched.
	if len(d.EdgeInserts) != 0 || len(d.EdgeDeletes) != 1 {
		t.Fatalf("failed merge mutated the batch: %+v", d)
	}
}

func TestDeltaMergeDeleteThenReinsert(t *testing.T) {
	// Deletes apply before inserts within one delta, so a delete followed by
	// a reinsert of the same base edge must keep both: the net effect is the
	// edge present, and dropping either half would instead error (delete of
	// a kept edge) or lose the edge.
	g := mergeTestGraph(t)
	d := &Delta{}
	var del, ins Delta
	del.DeleteEdge(0, 1)
	ins.InsertEdge(0, 1)
	if err := d.Merge(g, &del); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(g, &ins); err != nil {
		t.Fatal(err)
	}
	if len(d.EdgeDeletes) != 1 || len(d.EdgeInserts) != 1 {
		t.Fatalf("delete-then-reinsert collapsed: %+v", d)
	}
	g2, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 1) || g2.NumEdges() != 3 {
		t.Fatalf("delete-then-reinsert lost the edge: %d edges", g2.NumEdges())
	}
}

func TestDeltaMergeAppendOffsets(t *testing.T) {
	// Each merged request's appends land after everything already in the
	// batch; endpoints referencing them must resolve to the same IDs the
	// sequential application would have assigned.
	g := mergeTestGraph(t)
	d := &Delta{}
	var o1 Delta
	i1 := o1.AddNode("D", nil)
	o1.InsertEdge(0, NodeID(g.NumNodes()+i1)) // 0 → 3
	if err := d.Merge(g, &o1); err != nil {
		t.Fatal(err)
	}
	var o2 Delta
	i2 := o2.AddNode("E", nil)
	// o2 was built against g+o1: its own append is node 4, o1's is node 3.
	o2.InsertEdge(NodeID(g.NumNodes()+1+i2), 3) // 4 → 3
	if err := d.Merge(g, &o2); err != nil {
		t.Fatal(err)
	}
	// Deleting an edge incident to a batch-appended node that the batch never
	// inserted is rejected: sequentially that delete would fail too, since no
	// such edge exists.
	var o3 Delta
	o3.DeleteEdge(3, 0)
	if err := d.Merge(g, &o3); err == nil {
		t.Fatal("merge accepted a delete of a nonexistent edge at a batch-appended node")
	}
	g2, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || !g2.HasEdge(0, 3) || !g2.HasEdge(4, 3) {
		t.Fatalf("append offsets resolved wrong: nodes=%d out(0)=%v out(4)=%v", g2.NumNodes(), g2.Out(0), g2.Out(4))
	}
	if g2.Label(3) != "D" || g2.Label(4) != "E" {
		t.Fatalf("append labels landed wrong: %q %q", g2.Label(3), g2.Label(4))
	}
	// Deleting an edge an earlier batch member inserted to an appended node is
	// the cancellation case, exactly as the sequential chain would see it:
	// node 3 exists there with the edge present, and the delete removes it.
	var o4 Delta
	o4.DeleteEdge(0, 3)
	if err := d.Merge(g, &o4); err != nil {
		t.Fatal(err)
	}
	g3, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumNodes() != 5 || g3.HasEdge(0, 3) || !g3.HasEdge(4, 3) {
		t.Fatalf("cancellation at an appended node resolved wrong: nodes=%d out(0)=%v", g3.NumNodes(), g3.Out(0))
	}
}

func TestMergeSummaries(t *testing.T) {
	a := &DeltaSummary{OldNodes: 10, NewNodes: 11, TouchedSources: []NodeID{1, 3}, InsertHeads: []NodeID{2}, DeleteHeads: []NodeID{5}}
	b := &DeltaSummary{OldNodes: 11, NewNodes: 11, TouchedSources: []NodeID{3, 4}, InsertHeads: []NodeID{2, 9}, DeleteHeads: nil}
	m, err := mergeSummaries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.OldNodes != 10 || m.NewNodes != 11 {
		t.Fatalf("node span %d→%d", m.OldNodes, m.NewNodes)
	}
	wantTS := []NodeID{1, 3, 4}
	for i, v := range m.TouchedSources {
		if v != wantTS[i] {
			t.Fatalf("touched sources %v", m.TouchedSources)
		}
	}
	if len(m.InsertHeads) != 2 || len(m.DeleteHeads) != 1 {
		t.Fatalf("head sets %v %v", m.InsertHeads, m.DeleteHeads)
	}
	if _, err := mergeSummaries(b, a); err == nil {
		t.Fatal("accepted summaries out of sequence")
	}
}

// TestDeltaMergeRandomizedEquivalence is the structural half of the
// group-commit guarantee: applying K random deltas sequentially and applying
// their Merge in one ApplyDeltaVersionStep call must produce structurally
// identical graphs (CSR arrays included) at the same final version, with the
// merged summary agreeing on the node span.
func TestDeltaMergeRandomizedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dict := NewDict()
			b := NewBuilderWithDict(dict)
			n0 := 20 + rng.Intn(20)
			for i := 0; i < n0; i++ {
				b.AddNode(fmt.Sprintf("L%d", rng.Intn(4)), nil)
			}
			edges := map[[2]NodeID]bool{}
			for len(edges) < 60 {
				e := [2]NodeID{NodeID(rng.Intn(n0)), NodeID(rng.Intn(n0))}
				if !edges[e] {
					edges[e] = true
					if err := b.AddEdge(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			base := b.Build()

			for round := 0; round < 4; round++ {
				k := 1 + rng.Intn(5)
				merged := &Delta{}
				seq := base
				var seqSum *DeltaSummary
				for i := 0; i < k; i++ {
					// Mine the delta against the sequential head so it is
					// valid for the chain, then fold it into the batch.
					// Deletes stay below the batch's base node count: a
					// delete incident to a node an earlier batch member
					// appended is exactly the case Merge rejects (and the
					// server coalescer turns into a per-request failure).
					d := randomMergeDelta(rng, seq, base.NumNodes())
					var sum *DeltaSummary
					var err error
					seq, sum, err = ApplyDeltaWithSummary(seq, d)
					if err != nil {
						t.Fatalf("round %d step %d: sequential apply: %v", round, i, err)
					}
					if err := merged.Merge(base, d); err != nil {
						t.Fatalf("round %d step %d: merge: %v", round, i, err)
					}
					if seqSum == nil {
						seqSum = sum
					} else if seqSum, err = mergeSummaries(seqSum, sum); err != nil {
						t.Fatalf("round %d step %d: summary merge: %v", round, i, err)
					}
				}
				got, gotSum, err := ApplyDeltaVersionStep(base, merged, uint64(k))
				if err != nil {
					t.Fatalf("round %d: merged apply: %v", round, err)
				}
				if got.Version() != seq.Version() {
					t.Fatalf("round %d: merged version %d, sequential %d", round, got.Version(), seq.Version())
				}
				if gotSum.OldNodes != seqSum.OldNodes || gotSum.NewNodes != seqSum.NewNodes {
					t.Fatalf("round %d: summary span %d→%d vs %d→%d", round, gotSum.OldNodes, gotSum.NewNodes, seqSum.OldNodes, seqSum.NewNodes)
				}
				assertDeltaGraphsEqual(t, fmt.Sprintf("round %d", round), got, seq)
				base = seq
			}
		})
	}
}

// randomMergeDelta mines a random valid delta against g: appends, inserts
// (possibly duplicated, self-loops, incident to its own appends, or already
// present), and deletes of edges present in g with both endpoints below
// delCap that the delta does not also insert.
func randomMergeDelta(rng *rand.Rand, g *Graph, delCap int) *Delta {
	var d Delta
	n := g.NumNodes()
	for a := rng.Intn(3); a > 0; a-- {
		d.AddNode(fmt.Sprintf("L%d", rng.Intn(5)), nil)
	}
	nNew := n + len(d.NodeAppends)
	for a := rng.Intn(6); a > 0; a-- {
		d.InsertEdge(NodeID(rng.Intn(nNew)), NodeID(rng.Intn(nNew)))
	}
	del := rng.Intn(3)
	for v := NodeID(0); int(v) < delCap && del > 0; v++ {
		for _, w := range g.Out(v) {
			if int(w) >= delCap || rng.Intn(8) != 0 {
				continue
			}
			skip := false
			for _, e := range d.EdgeInserts {
				if e == [2]NodeID{v, w} {
					skip = true
					break
				}
			}
			if !skip {
				d.DeleteEdge(v, w)
				del--
				if del == 0 {
					break
				}
			}
		}
		if del == 0 {
			break
		}
	}
	return &d
}

// mergeSummaries is the oracle the randomized merge fuzz checks a merged
// delta's summary against. It combines the affected-area summaries of two
// consecutively applied deltas into the summary of their sequential
// composition: b must
// describe a delta applied to the graph a produced (b.OldNodes ==
// a.NewNodes). The touch-point sets union; the union over-approximates the
// merged delta's own summary only where an insert and its cancelling delete
// met (both heads stay listed), which is sound for every consumer — the
// seed sets bound what may have changed, they never assert that it did.
func mergeSummaries(a, b *DeltaSummary) (*DeltaSummary, error) {
	if b.OldNodes != a.NewNodes {
		return nil, fmt.Errorf("graph: summary merge mismatch: first ends at %d nodes, second starts at %d", a.NewNodes, b.OldNodes)
	}
	return &DeltaSummary{
		OldNodes:       a.OldNodes,
		NewNodes:       b.NewNodes,
		TouchedSources: unionSorted(a.TouchedSources, b.TouchedSources),
		InsertHeads:    unionSorted(a.InsertHeads, b.InsertHeads),
		DeleteHeads:    unionSorted(a.DeleteHeads, b.DeleteHeads),
	}, nil
}

// unionSorted merges two sorted unique NodeID slices into a fresh sorted
// unique slice.
func unionSorted(a, b []NodeID) []NodeID {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
