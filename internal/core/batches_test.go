package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
)

// naiveFixpoint returns, per query node and data node, whether (u,v) belongs
// to the greatest fixpoint of the simulation condition of p in g, started
// from the pairs that satisfy u's search condition and that keep accepts:
// a pair leaves while some query edge out of u finds no data successor of v
// left in the set, round after round until nothing changes. It shares no
// code with the engine or the simulation package, and costs a few rounds
// over |Vp|·|V| pairs: for graphs of a few dozen nodes.
func naiveFixpoint(g *graph.Graph, p *pattern.Pattern, keep func(u int, v graph.NodeID) bool) [][]bool {
	in := make([][]bool, p.NumNodes())
	for u := range in {
		in[u] = make([]bool, g.NumNodes())
		for v := range in[u] {
			in[u][v] = p.MatchesNode(g, u, graph.NodeID(v)) && keep(u, graph.NodeID(v))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := range in {
			for v := range in[u] {
				if !in[u][v] {
					continue
				}
				for _, uc := range p.Out(u) {
					if !slices.ContainsFunc(g.Out(graph.NodeID(v)), func(w graph.NodeID) bool { return in[uc][w] }) {
						in[u][v], changed = false, true
						break
					}
				}
			}
		}
	}
	return in
}

// leafNodes reports, per query node, whether it has rank 0: every query node
// it reaches reaches it back, so it reaches no SCC of Q but its own. These
// are the nodes whose candidates the feeder hands out.
func leafNodes(p *pattern.Pattern) []bool {
	n := p.NumNodes()
	reach := make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		for _, w := range p.Out(u) {
			reach[u][w] = true
		}
	}
	for m := 0; m < n; m++ {
		for u := 0; u < n; u++ {
			for w := 0; w < n; w++ {
				reach[u][w] = reach[u][w] || reach[u][m] && reach[m][w]
			}
		}
	}
	leaf := make([]bool, n)
	for u := range leaf {
		leaf[u] = true
		for w := 0; w < n; w++ {
			if reach[u][w] && !reach[w][u] {
				leaf[u] = false
			}
		}
	}
	return leaf
}

// checkBatches drives one engine run batch by batch until the feeder is
// exhausted (termination is not checked, so every batch is seen) and, after
// each drainEvents — the one newEngine runs before the first batch
// included — fails t unless the matched pairs are exactly naiveFixpoint's
// with the leaf pairs not yet fed removed. That is what every batch must
// hand the R phase and the hook: a pair missing from it shrinks a lower
// bound TopKDH selects by, a pair too many is a wrong match. After the last
// batch every pair must be finalized, matched or dead.
func checkBatches(t testing.TB, g *graph.Graph, p *pattern.Pattern, k int, opts Options) {
	t.Helper()
	e, err := newEngine(g, p, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.scratch == nil {
		return // some query node has no candidates: no run
	}
	defer e.release()
	leaf := leafNodes(p)
	check := func(batch int) {
		t.Helper()
		want := naiveFixpoint(g, p, func(u int, v graph.NodeID) bool {
			q := e.ci.Pair(u, v)
			return !leaf[u] || q >= 0 && e.fed[q]
		})
		for u := range want {
			for v, w := range want[u] {
				q := e.ci.Pair(u, graph.NodeID(v))
				if got := q >= 0 && e.status[q] == statusMatched; got != w {
					t.Fatalf("pattern %s, %d batches, strategy %v: after batch %d pair (%d,%d) matched = %v, the greatest fixpoint says %v",
						p, opts.numBatches(), opts.Strategy, batch, u, v, got, w)
				}
			}
		}
	}
	check(0)
	for batch := 1; ; batch++ {
		b := e.feeder.next(e)
		if len(b) == 0 {
			break
		}
		for _, q := range b {
			e.feed(q)
		}
		e.drainEvents()
		check(batch)
		e.propagateRelevance()
	}
	// Every leaf is fed: nothing can change any more, so every pair is
	// final, and the ones that did not match are dead.
	for q := int32(0); q < int32(e.ci.NumPairs()); q++ {
		if !e.finalized[q] || e.status[q] == statusUnknown {
			t.Fatalf("pattern %s: pair (%d,%d) unresolved after the last batch (status %d, finalized %v)",
				p, e.ci.U[q], e.ci.V[q], e.status[q], e.finalized[q])
		}
	}
}

// selfLoopCase is a pattern a* → a (a self-loop on the output) against three
// a nodes, two of them on a cycle and one pointing into it.
func selfLoopCase(t testing.TB) (*graph.Graph, *pattern.Pattern) {
	t.Helper()
	b := graph.NewBuilder()
	n0 := b.AddNode("a", nil)
	n1 := b.AddNode("a", nil)
	n2 := b.AddNode("a", nil)
	for _, e := range [][2]graph.NodeID{{n0, n1}, {n1, n0}, {n2, n0}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p := pattern.New()
	a := p.AddNode("a")
	if err := p.AddEdge(a, a); err != nil {
		t.Fatal(err)
	}
	return b.Build(), p
}

// TestEngineBatchesMatchFixpoint checks the engine's state between batches,
// which no answer-level test sees: after every drainEvents the matched
// pairs are the greatest fixpoint of the product without the unfed leaf
// pairs (checkBatches). Inputs: Example 8 (Figure 1's cyclic pattern), the
// self-loop pattern, and TestQuickEngineMatchesOracle's random cyclic
// shapes at fixed seeds, under both strategies.
func TestEngineBatchesMatchFixpoint(t *testing.T) {
	g, _ := testutil.Figure1()
	for nb := 1; nb <= 4; nb++ {
		for _, s := range []Strategy{StrategyCovering, StrategyRandom} {
			checkBatches(t, g, testutil.Figure1Pattern(), 2, Options{NumBatches: nb, Strategy: s, Seed: int64(nb)})
		}
	}
	sg, sp := selfLoopCase(t)
	for nb := 1; nb <= 3; nb++ {
		checkBatches(t, sg, sp, 3, Options{NumBatches: nb})
	}
	labels := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(15)
			g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
			p := testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(3), labels, true)
			checkBatches(t, g, p, 1+int(seed%5), Options{
				Strategy: Strategy(seed % 2), Seed: seed, NumBatches: 1 + rng.Intn(5),
			})
		})
	}
}
