package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"divtopk/internal/graph"
)

// randomAdvGraph builds a random labeled graph for the advance fuzz.
func randomAdvGraph(rng *rand.Rand, n, m, labels int, dict *graph.Dict) *graph.Graph {
	b := graph.NewBuilderWithDict(dict)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)), nil)
	}
	for i := 0; i < m; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// randomAdvDelta mines a random delta against g: node appends (sometimes
// with a label the dictionary has not seen yet), edge inserts (possibly
// duplicates, self-loops, or incident to appended nodes), and deletes of
// existing edges.
func randomAdvDelta(rng *rand.Rand, g *graph.Graph, labels int) *graph.Delta {
	var d graph.Delta
	n := g.NumNodes()
	for a := rng.Intn(3); a > 0; a-- {
		d.AddNode(fmt.Sprintf("L%d", rng.Intn(labels+1)), nil)
	}
	nNew := n + len(d.NodeAppends)
	for a := rng.Intn(8); a > 0; a-- {
		d.InsertEdge(graph.NodeID(rng.Intn(nNew)), graph.NodeID(rng.Intn(nNew)))
	}
	del := rng.Intn(4)
	for v := graph.NodeID(0); v < graph.NodeID(n) && del > 0; v++ {
		for _, w := range g.Out(v) {
			if rng.Intn(10) != 0 {
				continue
			}
			skip := false
			for _, e := range d.EdgeInserts {
				if e == [2]graph.NodeID{v, w} {
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
	}
	return &d
}

// assertCachesEqual compares the full warmed row sets of two caches byte
// for byte.
func assertCachesEqual(t *testing.T, label string, got, want *BoundsCache) {
	t.Helper()
	got.mu.RLock()
	defer got.mu.RUnlock()
	want.mu.RLock()
	defer want.mu.RUnlock()
	if len(got.counts) != len(want.counts) {
		t.Fatalf("%s: %d warmed labels, want %d", label, len(got.counts), len(want.counts))
	}
	for id, wantRow := range want.counts {
		gotRow, ok := got.counts[id]
		if !ok {
			t.Fatalf("%s: label %d missing from advanced cache", label, id)
		}
		if !slices.Equal(gotRow, wantRow) {
			for v := range wantRow {
				if gotRow[v] != wantRow[v] {
					t.Fatalf("%s: label %d row %d = %d, want %d", label, id, v, gotRow[v], wantRow[v])
				}
			}
			t.Fatalf("%s: label %d rows differ in length: %d vs %d", label, id, len(gotRow), len(wantRow))
		}
	}
}

// TestBoundsAdvanceDeltaChainFuzz is the bound-index half of the
// delta-equivalence guarantee: for every seed, a random graph advances
// through a chain of random deltas, and after every step the advanced
// cache's counts must be byte-identical to a fresh NewBoundsCache+Warm on
// the new snapshot — for both descendant-count modes, under the adaptive
// fallback as well as a forced-incremental and a forced-rebuild path,
// which must also agree with each other. Labels a delta introduces are
// filled by the post-advance Warm (the Matcher commit discipline) and
// compared too.
func TestBoundsAdvanceDeltaChainFuzz(t *testing.T) {
	const labels = 4
	for _, mode := range []struct {
		name  string
		exact bool
	}{{"exact", true}, {"loose", false}} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dict := graph.NewDict()
				g := randomAdvGraph(rng, 24+rng.Intn(30), 90+rng.Intn(120), labels, dict)

				newWarm := func(gg *graph.Graph) *BoundsCache {
					c := NewBoundsCache(gg, mode.exact)
					c.Warm(nil)
					return c
				}
				adaptive := newWarm(g)
				forced := newWarm(g)  // never falls back
				rebuilt := newWarm(g) // always falls back
				for step := 0; step < 10; step++ {
					d := randomAdvDelta(rng, g, labels)
					gNew, sum, err := graph.ApplyDeltaWithSummary(g, d)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}

					var stats AdvanceStats
					adaptive, stats, err = adaptive.Advance(gNew, sum, AdvanceOptions{})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					forced, _, err = forced.Advance(gNew, sum, AdvanceOptions{RebuildRatio: 1})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					var rstats AdvanceStats
					rebuilt, rstats, err = rebuilt.Advance(gNew, sum, AdvanceOptions{RebuildRatio: 1e-9})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if rstats.Incremental && rstats.RecomputedCells > 0 {
						t.Fatalf("step %d: forced-rebuild path stayed incremental: %+v", step, rstats)
					}
					if stats.TotalRows != gNew.NumNodes() {
						t.Fatalf("step %d: stats rows %d, want %d", step, stats.TotalRows, gNew.NumNodes())
					}

					// The Matcher discipline: labels the delta introduced
					// fill against the new snapshot after the advance.
					adaptive.Warm(nil)
					forced.Warm(nil)
					rebuilt.Warm(nil)

					oracle := newWarm(gNew)
					assertCachesEqual(t, fmt.Sprintf("step %d adaptive", step), adaptive, oracle)
					assertCachesEqual(t, fmt.Sprintf("step %d forced-incremental", step), forced, oracle)
					assertCachesEqual(t, fmt.Sprintf("step %d forced-rebuild", step), rebuilt, oracle)
					g = gNew
				}
			})
		}
	}
}

// TestBoundsAdvanceVersionMismatch pins the hard-error guard: advancing
// must move the version forward (a multi-step jump is legal — that is the
// group-commit path — but the summary must then cover the whole merged
// delta), and a summary that disagrees with the snapshots is rejected
// instead of silently producing a wrong index.
func TestBoundsAdvanceVersionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomAdvGraph(rng, 16, 40, 3, graph.NewDict())
	c := NewBoundsCache(g, true)
	c.Warm(nil)

	var d graph.Delta
	d.InsertEdge(0, 1)
	g1, sum1, err := graph.ApplyDeltaWithSummary(g, &d)
	if err != nil {
		t.Fatal(err)
	}

	// A multi-step advance is the group-commit path: the merged delta of
	// both steps applied in one ApplyDeltaVersionStep call, advanced with
	// the merged summary, must match a fresh build of the final snapshot.
	merged := &graph.Delta{}
	if err := merged.Merge(g, &d); err != nil {
		t.Fatal(err)
	}
	var d2 graph.Delta
	d2.InsertEdge(1, 2)
	if err := merged.Merge(g, &d2); err != nil {
		t.Fatal(err)
	}
	g2m, sum2m, err := graph.ApplyDeltaVersionStep(g, merged, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2m.Version() != g.Version()+2 {
		t.Fatalf("merged apply landed on version %d, want %d", g2m.Version(), g.Version()+2)
	}
	c2, _, err := c.Advance(g2m, sum2m, AdvanceOptions{})
	if err != nil {
		t.Fatalf("group-commit advance: %v", err)
	}
	oracle2 := NewBoundsCache(g2m, true)
	oracle2.Warm(nil)
	assertCachesEqual(t, "group-commit advance", c2, oracle2)

	// Same snapshot (no version bump) is a hard error.
	if _, _, err := c.Advance(g, sum1, AdvanceOptions{}); err == nil {
		t.Fatal("Advance accepted the cache's own snapshot")
	}
	// A summary whose node counts disagree with the delta is a hard error.
	bad := *sum1
	bad.NewNodes++
	if _, _, err := c.Advance(g1, &bad, AdvanceOptions{}); err == nil {
		t.Fatal("Advance accepted a summary with mismatched node counts")
	}
	if _, _, err := c.Advance(g1, nil, AdvanceOptions{}); err == nil {
		t.Fatal("Advance accepted a nil summary")
	}
	// The well-formed advance still works afterwards.
	c1, stats, err := c.Advance(g1, sum1, AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Graph() != g1 || stats.TotalRows != g1.NumNodes() {
		t.Fatalf("advance landed on the wrong snapshot: %+v", stats)
	}
}

// TestBoundsAdvanceConcurrentWithReads advances a cache while the old
// snapshot keeps serving index reads — the exact overlap a Matcher commit
// creates — and must be race-clean.
func TestBoundsAdvanceConcurrentWithReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict := graph.NewDict()
	g := randomAdvGraph(rng, 40, 160, 4, dict)
	c := NewBoundsCache(g, true)
	c.Warm(nil)

	var d graph.Delta
	d.AddNode("L0", nil)
	d.InsertEdge(0, graph.NodeID(g.NumNodes()))
	gNew, sum, err := graph.ApplyDeltaWithSummary(g, &d)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := 0; id < 4; id++ {
					_ = c.countsFor(graph.LabelID(id))
				}
			}
		}()
	}
	nc, _, err := c.Advance(gNew, sum, AdvanceOptions{})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	nc.Warm(nil)
	oracle := NewBoundsCache(gNew, true)
	oracle.Warm(nil)
	assertCachesEqual(t, "concurrent advance", nc, oracle)
}
