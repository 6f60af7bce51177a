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
// (TopK and TopKDiversified), and all three maintenance policies (adaptive, forced-incremental,
// forced-rebuild).
func TestMatcherUpdateBatchEquivalenceFuzz(t *testing.T) {
	configs := []struct {
		name  string
		ratio float64 // Matcher.indexRatio: 0 = default, 1 never rebuilds
	}{
		{"adaptive", 0},
		{"incremental", 1},
		{"rebuild", 1e-12},
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := batchFuzzGraph(t, rng)
			q, err := GeneratePattern(base, 3, 5, seed%2 == 0, true, seed)
			if err != nil {
				t.Fatal(err)
			}

			type pair struct{ seq, batch *Matcher }
			sessions := make([]pair, len(configs))
			for i, c := range configs {
				sessions[i] = pair{NewMatcher(base), NewMatcher(base)}
				sessions[i].seq.indexRatio, sessions[i].batch.indexRatio = c.ratio, c.ratio
			}

			tag := 0
			for round := 0; round < 3; round++ {
				k := 1 + rng.Intn(5)
				parts := make([]*Delta, 0, k)
				for i := 0; i < k; i++ {
					// Mine against the sequential head (all sequential
					// sessions walk the same chain), then apply everywhere.
					d := mineBatchDelta(rng, sessions[0].seq.Graph(), tag)
					tag++
					parts = append(parts, d)
					for ci := range sessions {
						if _, _, err := sessions[ci].seq.UpdateWithStats(d); err != nil {
							t.Fatalf("round %d part %d (%s): %v", round, i, configs[ci].name, err)
						}
					}
				}
				for ci := range sessions {
					g2, stats, err := updateBatch(sessions[ci].batch, parts)
					if err != nil {
						t.Fatalf("round %d batch (%s): %v", round, configs[ci].name, err)
					}
					if stats.BatchWidth != k {
						t.Fatalf("round %d (%s): batch width %d, want %d", round, configs[ci].name, stats.BatchWidth, k)
					}
					if g2.Version() != sessions[ci].seq.Graph().Version() {
						t.Fatalf("round %d (%s): batch landed on version %d, sequential on %d",
							round, configs[ci].name, g2.Version(), sessions[ci].seq.Graph().Version())
					}
				}

				// Every session, sequential or batched, under every policy
				// and worker count, answers both kernels identically.
				ref, err := sessions[0].seq.TopK(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				refDiv, err := sessions[0].seq.TopKDiversified(q, 5, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				for ci, s := range sessions {
					for _, m := range []*Matcher{s.seq, s.batch} {
						res, err := m.TopK(q, 8)
						if err != nil {
							t.Fatal(err)
						}
						assertResultsIdentical(t, fmt.Sprintf("round %d %s", round, configs[ci].name), ref, res)
						div, err := m.TopKDiversified(q, 5, 0.5)
						if err != nil {
							t.Fatal(err)
						}
						if div.F != refDiv.F || len(div.Matches) != len(refDiv.Matches) {
							t.Fatalf("round %d %s: diversified F/|S| %v/%d vs %v/%d",
								round, configs[ci].name, div.F, len(div.Matches), refDiv.F, len(refDiv.Matches))
						}
						for j := range div.Matches {
							if div.Matches[j].Node != refDiv.Matches[j].Node {
								t.Fatalf("round %d %s: diversified selection differs at %d", round, configs[ci].name, j)
							}
						}
					}
				}
			}
		})
	}
}
