package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// assertCondEquivalent verifies that got is a correct condensation of the
// graph whose ground truth is want (a from-scratch CondenseCSR): the same
// partition with the same per-component structure, under any valid
// reverse-topological numbering — the patch is free to number components
// differently from Tarjan, and every consumer is numbering-invariant.
func assertCondEquivalent(t *testing.T, label string, g *Graph, got, want *Condensation) {
	t.Helper()
	if got.NumComps != want.NumComps {
		t.Fatalf("%s: %d components, want %d", label, got.NumComps, want.NumComps)
	}
	if len(got.Comp) != g.NumNodes() {
		t.Fatalf("%s: Comp covers %d nodes, want %d", label, len(got.Comp), g.NumNodes())
	}
	// Partition match: map each got-component to the want-component of its
	// first member and require identical member lists (both ascending).
	toWant := make([]int32, got.NumComps)
	for c := 0; c < got.NumComps; c++ {
		members := got.Members[c]
		if len(members) == 0 {
			t.Fatalf("%s: component %d has no members", label, c)
		}
		w := want.Comp[members[0]]
		toWant[c] = w
		if !sameMembers(members, want.Members[w]) {
			t.Fatalf("%s: component %d members %v, want %v", label, c, members, want.Members[w])
		}
		for _, v := range members {
			if got.Comp[v] != int32(c) {
				t.Fatalf("%s: node %d in Members[%d] but Comp says %d", label, v, c, got.Comp[v])
			}
		}
		if got.Nontrivial[c] != want.Nontrivial[w] {
			t.Fatalf("%s: component %d nontrivial=%v, want %v", label, c, got.Nontrivial[c], want.Nontrivial[w])
		}
	}
	// DAG match through the mapping, plus the numbering invariant every
	// consumer relies on: successors carry smaller indices.
	stamp := make([]int32, want.NumComps)
	for i := range stamp {
		stamp[i] = -1
	}
	for c := 0; c < got.NumComps; c++ {
		if len(got.Succ[c]) != len(want.Succ[toWant[c]]) {
			t.Fatalf("%s: component %d has %d successors, want %d", label, c, len(got.Succ[c]), len(want.Succ[toWant[c]]))
		}
		for _, s := range want.Succ[toWant[c]] {
			stamp[s] = int32(c)
		}
		for _, s := range got.Succ[c] {
			if s >= int32(c) {
				t.Fatalf("%s: edge %d→%d violates the reverse-topological numbering", label, c, s)
			}
			if stamp[toWant[s]] != int32(c) {
				t.Fatalf("%s: component %d successor %d not in the oracle's set", label, c, s)
			}
		}
		if len(got.Pred[c]) != len(want.Pred[toWant[c]]) {
			t.Fatalf("%s: component %d has %d predecessors, want %d", label, c, len(got.Pred[c]), len(want.Pred[toWant[c]]))
		}
	}
}

// TestPatchCondensationFuzz drives random delta chains through
// ApplyDeltaVersionStep with the predecessor's condensation computed, so
// every apply attempts the incremental patch, and checks each patched
// condensation against a from-scratch Tarjan run of the same snapshot. The
// generator mixes SCC-preserving churn with component merges (cycle
// inserts) and intra-component deletes, so both the patch path and every
// bail-out path are exercised; the test asserts the patch actually fired to
// keep the fuzz honest.
func TestPatchCondensationFuzz(t *testing.T) {
	patched, bailed := 0, 0
	for seed := int64(1); seed <= 15; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dict := NewDict()
			b := NewBuilderWithDict(dict)
			n0 := 20 + rng.Intn(30)
			for i := 0; i < n0; i++ {
				b.AddNode(fmt.Sprintf("L%d", rng.Intn(4)), nil)
			}
			for i := 0; i < 3*n0; i++ {
				_ = b.AddEdge(NodeID(rng.Intn(n0)), NodeID(rng.Intn(n0)))
			}
			g := b.Build()
			g.Condensation() // give the first apply a patch base

			for step := 0; step < 15; step++ {
				d := randomMergeDelta(rng, g, g.NumNodes())
				g2, _, err := ApplyDeltaVersionStep(g, d, 1)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				oracle := CondenseCSR(g2.n, g2.outOff, g2.outAdj)
				if c := g2.condIfComputed(); c != nil {
					patched++
					assertCondEquivalent(t, fmt.Sprintf("step %d", step), g2, c, oracle)
				} else {
					bailed++
				}
				// Either way the snapshot must end up with a correct
				// condensation for the next step to patch from.
				assertCondEquivalent(t, fmt.Sprintf("step %d (installed)", step), g2, g2.Condensation(), oracle)
				g = g2
			}
		})
	}
	if patched == 0 {
		t.Fatal("the fuzz never exercised the patch path")
	}
	if bailed == 0 {
		t.Fatal("the fuzz never exercised a bail-out path")
	}
}

// TestPatchCondensationEmptyDelta pins the empty-batch shortcut: an empty
// delta shares every array of the predecessor, condensation included, and
// only advances the version.
func TestPatchCondensationEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	for i := 0; i < 12; i++ {
		b.AddNode(fmt.Sprintf("L%d", i%3), nil)
	}
	for i := 0; i < 30; i++ {
		_ = b.AddEdge(NodeID(rng.Intn(12)), NodeID(rng.Intn(12)))
	}
	g := b.Build()
	cond := g.Condensation()
	g2, sum, err := ApplyDeltaVersionStep(g, &Delta{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != g.Version()+5 {
		t.Fatalf("version %d, want %d", g2.Version(), g.Version()+5)
	}
	if sum.OldNodes != g.NumNodes() || sum.NewNodes != g.NumNodes() {
		t.Fatalf("summary span %d→%d", sum.OldNodes, sum.NewNodes)
	}
	if g2.condIfComputed() != cond {
		t.Fatal("empty delta did not share the predecessor's condensation")
	}
}
