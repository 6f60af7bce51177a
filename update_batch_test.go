package divtopk

import (
	"fmt"
	"math/rand"
	"testing"

	"divtopk/internal/graph"
)

// updateBatch commits ds as one group commit: it folds them with Delta.Merge
// against the session's current snapshot, each valid against the snapshot
// applying the ones before it would produce, and applies the result through
// UpdateMerged — the coalescer's path without its per-request bookkeeping.
// The caller must be the session's only updater.
func updateBatch(m *Matcher, ds []*Delta) (*Graph, IndexStats, error) {
	base := m.Graph()
	var merged Delta
	for i, d := range ds {
		if err := merged.Merge(base, d); err != nil {
			return nil, IndexStats{}, fmt.Errorf("batch update %d: %w", i, err)
		}
	}
	return m.UpdateMerged(&merged, ds)
}

// batchFuzzGraph builds a small random cyclic graph through the public
// builder, so the fuzz exercises exactly the surface a library user has.
func batchFuzzGraph(t *testing.T, rng *rand.Rand) *Graph {
	t.Helper()
	b := NewGraphBuilder()
	n := 50 + rng.Intn(30)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(4)))
	}
	for i := 0; i < 4*n; i++ {
		if err := b.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// mineBatchDelta mines one random valid delta against g: node appends
// (sometimes with a fresh label), edge inserts (duplicates, self-loops,
// edges at appended nodes included), and deletes of edges g has.
func mineBatchDelta(rng *rand.Rand, g *Graph, tag int) *Delta {
	var d Delta
	n := g.NumNodes()
	for a := rng.Intn(3); a > 0; a-- {
		label := fmt.Sprintf("L%d", rng.Intn(4))
		if rng.Intn(4) == 0 {
			label = fmt.Sprintf("dyn-%d", tag)
		}
		d.AddNode(label)
	}
	type edge struct{ u, v int }
	nNew := n + d.Size() // appends precede edge ops in Size, but only appends exist yet
	for a := rng.Intn(5); a > 0; a-- {
		d.InsertEdge(rng.Intn(nNew), rng.Intn(nNew))
	}
	var dels []edge
	for v := 0; v < n; v++ {
		for _, w := range g.g.Out(graph.NodeID(v)) {
			if rng.Intn(12) == 0 {
				dels = append(dels, edge{v, int(w)})
			}
		}
	}
	for i, e := range dels {
		if i >= 2 {
			break
		}
		d.DeleteEdge(e.u, e.v)
	}
	return &d
}

// TestMatcherUpdateBatchEquivalenceFuzz is the group-commit acceptance
// criterion at the session layer: applying K random deltas one commit at a
// time and applying them as one group commit must land on the same version
// and answer every query byte-identically — across both query kernels
// (TopK and TopKDiversified). The chains maintain the bound index both
// ways, incrementally and by the rebuild past the default work share.
func TestMatcherUpdateBatchEquivalenceFuzz(t *testing.T) {
	modes := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := batchFuzzGraph(t, rng)
			q, err := GeneratePattern(base, 3, 5, seed%2 == 0, true, seed)
			if err != nil {
				t.Fatal(err)
			}
			seq, batch := NewMatcher(base), NewMatcher(base)
			tag := 0
			for round := 0; round < 3; round++ {
				k := 1 + rng.Intn(5)
				parts := make([]*Delta, 0, k)
				for i := 0; i < k; i++ {
					d := mineBatchDelta(rng, seq.Graph(), tag)
					tag++
					parts = append(parts, d)
					_, stats, err := seq.UpdateWithStats(d)
					if err != nil {
						t.Fatalf("round %d part %d: %v", round, i, err)
					}
					modes[stats.Mode]++
				}
				g2, stats, err := updateBatch(batch, parts)
				if err != nil {
					t.Fatalf("round %d batch: %v", round, err)
				}
				modes[stats.Mode]++
				if stats.BatchWidth != k || g2.Version() != seq.Graph().Version() {
					t.Fatalf("round %d: batch of %d landed on version %d (width %d), sequential on %d",
						round, k, g2.Version(), stats.BatchWidth, seq.Graph().Version())
				}
				want, err := seq.TopK(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				res, err := batch.TopK(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, fmt.Sprintf("round %d", round), want, res)
				wantDiv, err := seq.TopKDiversified(q, 5, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				div, err := batch.TopKDiversified(q, 5, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				assertDiversifiedIdentical(t, fmt.Sprintf("round %d", round), div, wantDiv)
			}
		})
	}
	if modes["incremental"] == 0 || modes["rebuild"] == 0 {
		t.Errorf("the chains did not maintain the index both ways: %v", modes)
	}
}
