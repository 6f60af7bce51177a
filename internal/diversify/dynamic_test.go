package diversify

import (
	"fmt"
	"math/rand"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/oracle"
)

// dynState tracks the logical node/edge content of an evolving graph so a
// from-scratch rebuild can oracle the delta chain.
type dynState struct {
	labels []string
	edges  map[[2]graph.NodeID]bool
}

func (s *dynState) rebuild() *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range s.labels {
		b.AddNode(l, nil)
	}
	for e := range s.edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// randomDivDelta mutates s and returns the matching delta.
func randomDivDelta(rng *rand.Rand, s *dynState, labels int) *graph.Delta {
	var d graph.Delta
	for a := rng.Intn(3); a > 0; a-- {
		l := fmt.Sprintf("L%d", rng.Intn(labels))
		d.AddNode(l, nil)
		s.labels = append(s.labels, l)
	}
	n := len(s.labels)
	for a := 1 + rng.Intn(10); a > 0; a-- {
		e := [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		d.InsertEdge(e[0], e[1])
		s.edges[e] = true
	}
	var candidates [][2]graph.NodeID
	for e := range s.edges {
		candidates = append(candidates, e)
	}
	for a := rng.Intn(5); a > 0 && len(candidates) > 0; a-- {
		i := rng.Intn(len(candidates))
		e := candidates[i]
		inserted := false
		for _, ie := range d.EdgeInserts {
			if ie == e {
				inserted = true
				break
			}
		}
		if !inserted {
			d.DeleteEdge(e[0], e[1])
			delete(s.edges, e)
		}
		candidates[i] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}
	return &d
}

// TestDynamicGraphDiversifiedEquivalence closes the delta-equivalence loop
// at the algorithm layer: graphs evolved through ApplyDelta chains must be
// indistinguishable from from-scratch rebuilds to every diversified
// algorithm — TopKDiv under both kernels, TopKDH — at Parallelism 1 and 8,
// byte for byte (nodes, bounds, relevant sets, F).
func TestDynamicGraphDiversifiedEquivalence(t *testing.T) {
	const labels = 5
	const k, lambda = 5, 0.5
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Start from a generator graph so mined patterns have matches.
			g := gen.Synthetic(gen.SynthConfig{N: 150, M: 900, Labels: labels, Seed: seed})
			ps, err := gen.Suite(g, gen.PatternConfig{Nodes: 3, Edges: 4, Seed: seed}, 1)
			if err != nil {
				t.Fatalf("pattern generation: %v", err)
			}
			p := ps[0]
			// TopKDiv under the shipped CSR kernel and under the frozen
			// reference kernel (the oracle's find-all pool, re-ranked).
			kernels := []struct {
				name    string
				topKDiv func(g *graph.Graph, par int) (*Result, error)
			}{
				{"csr", func(g *graph.Graph, par int) (*Result, error) {
					return TopKDivOpts(g, p, k, lambda, core.Options{Parallelism: par})
				}},
				{"reference", func(g *graph.Graph, par int) (*Result, error) {
					base, err := oracle.MatchBaseline(g, p, k, nil)
					if err != nil {
						return nil, err
					}
					return TopKDivFromBase(base, k, lambda, core.Options{Parallelism: par})
				}},
			}

			st := &dynState{edges: map[[2]graph.NodeID]bool{}}
			for v := 0; v < g.NumNodes(); v++ {
				st.labels = append(st.labels, g.Label(graph.NodeID(v)))
			}
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				for _, w := range g.Out(v) {
					st.edges[[2]graph.NodeID{v, w}] = true
				}
			}

			rng := rand.New(rand.NewSource(seed * 101))
			for step := 0; step < 6; step++ {
				d := randomDivDelta(rng, st, labels)
				g2, err := graph.ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				g = g2
				rebuilt := st.rebuild()

				for _, kernel := range kernels {
					for _, par := range []int{1, 8} {
						label := fmt.Sprintf("step %d kernel %s par %d", step, kernel.name, par)

						inc, err := kernel.topKDiv(g, par)
						if err != nil {
							t.Fatalf("%s: delta graph: %v", label, err)
						}
						ora, err := kernel.topKDiv(rebuilt, par)
						if err != nil {
							t.Fatalf("%s: rebuilt graph: %v", label, err)
						}
						if got, want := serializeDiv(inc), serializeDiv(ora); got != want {
							t.Fatalf("%s: TopKDiv differs between delta-evolved and rebuilt graph\ndelta:\n%s\nrebuilt:\n%s", label, got, want)
						}
					}
				}
				for _, par := range []int{1, 8} {
					opts := core.Options{Parallelism: par}
					inc, err := TopKDH(g, p, k, lambda, opts)
					if err != nil {
						t.Fatalf("step %d par %d: TopKDH delta graph: %v", step, par, err)
					}
					ora, err := TopKDH(rebuilt, p, k, lambda, opts)
					if err != nil {
						t.Fatalf("step %d par %d: TopKDH rebuilt graph: %v", step, par, err)
					}
					if got, want := serializeDiv(inc), serializeDiv(ora); got != want {
						t.Fatalf("step %d par %d: TopKDH differs\ndelta:\n%s\nrebuilt:\n%s", step, par, got, want)
					}
				}
			}
		})
	}
}
