package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// decodeBatchesCase reads a graph and a pattern as decodeGraphPattern does,
// then the run's parameters, each taken modulo its bound: the batch count
// (1..16), k (1..5), and one byte whose low bit is the strategy and whose
// other bits seed the random one.
func decodeBatchesCase(data []byte) (*graph.Graph, *pattern.Pattern, int, core.Options) {
	r := byteReader(data)
	g, p, _ := decodeGraphPattern(&r)
	opts := core.Options{NumBatches: 1 + r.next()%16}
	k := 1 + r.next()%5
	s := r.next()
	opts.Strategy, opts.Seed = core.Strategy(s&1), int64(s>>1)
	return g, p, k, opts
}

// FuzzEngineBatches holds the early-termination engine to the find-all
// evaluation on byte-decoded inputs (graph ≤ 32 nodes, pattern ≤ 4 nodes
// with cycles and self-loops): between batches its matched pairs are the
// greatest fixpoint of the product without the unfed leaf pairs
// (core.CheckBatches), and its top k carry the exact δr multiset of
// MatchBaseline's top k — Proposition 3 makes the set it stops on a top-k
// set by δr, whatever lower bounds it reports. The seeds are random graphs
// and patterns of the incremental tests' generators at 3 and 4 labels, and
// the self-loop pattern a* → a.
func FuzzEngineBatches(f *testing.F) {
	for _, labels := range []int{3, 4} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := core.RandomAdvGraph(rng, 8+rng.Intn(25), rng.Intn(100), labels, graph.NewDict())
			p := randomPrebuiltPattern(rng, labels)
			f.Add(append(encodeGraphPattern(labels, g, p), byte(rng.Intn(16)), byte(rng.Intn(5)), byte(rng.Intn(256))))
		}
	}
	b := graph.NewBuilder()
	for range 3 {
		b.AddNode("L0", nil)
	}
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 0)
	_ = b.AddEdge(2, 0)
	p := pattern.New()
	_ = p.AddEdge(p.AddNode("L0"), 0)
	f.Add(append(encodeGraphPattern(1, b.Build(), p), 0, 2, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, k, opts := decodeBatchesCase(data)
		core.CheckBatches(t, g, p, k, opts)
		res, err := core.TopK(g, p, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		base, err := core.MatchBaseline(g, p, k, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.GlobalMatch != base.GlobalMatch {
			t.Fatalf("GlobalMatch: engine %v, find-all %v", res.GlobalMatch, base.GlobalMatch)
		}
		exact := map[graph.NodeID]int{}
		for _, m := range base.All {
			exact[m.Node] = m.Relevance
		}
		var got, want []int
		for _, m := range res.Matches {
			d, ok := exact[m.Node]
			if !ok {
				t.Fatalf("engine match %d is no find-all match", m.Node)
			}
			got = append(got, d)
		}
		for _, m := range base.Matches {
			want = append(want, m.Relevance)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("pattern %s, k %d, %+v: top-k δr %v, find-all %v", p, k, opts, got, want)
		}
	})
}
