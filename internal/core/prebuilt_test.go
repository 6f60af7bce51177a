package core_test

// An external test package: the reference side comes from internal/oracle,
// which imports core.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/oracle"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// randomPrebuiltPattern builds a small random pattern over the label space.
func randomPrebuiltPattern(rng *rand.Rand, labels int) *pattern.Pattern {
	p := pattern.New()
	nq := 2 + rng.Intn(3)
	for i := 0; i < nq; i++ {
		p.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for tries := 0; tries < 2*nq; tries++ {
		_ = p.AddEdge(rng.Intn(nq), rng.Intn(nq))
	}
	_ = p.SetOutput(rng.Intn(nq))
	return p
}

// TestPrebuiltEvalDeltaChainKernelEquivalence pins the kernel dimension of
// the warm result cache: evaluating with the incrementally maintained
// (CI, product, simulation) triple handed in through Options.Prebuilt must
// be deeply equal to a cold CSR evaluation AND to the frozen reference
// kernel at every version of a random delta chain — for both the find-all
// baseline and the early-termination engine. A step whose advance returns
// ErrIncFallback rebuilds the state, as the matcher evicts and re-admits. The
// reference kernel deliberately recomputes the fixpoint (it is the oracle),
// so agreement here means the maintained state is exactly what a cold
// evaluation would build.
func TestPrebuiltEvalDeltaChainKernelEquivalence(t *testing.T) {
	const labels = 4
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dict := graph.NewDict()
			g := core.RandomAdvGraph(rng, 24+rng.Intn(30), 90+rng.Intn(120), labels, dict)
			p := randomPrebuiltPattern(rng, labels)
			inc := simulation.NewIncState(g, p, 0)

			check := func(step int) {
				pre := &core.PrebuiltEval{CI: inc.CI, Prod: inc.Prod, Sim: inc.Res}
				warm, err := core.MatchBaselineOpts(g, p, 8, true, core.Options{Prebuilt: pre})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				cold, err := core.MatchBaselineOpts(g, p, 8, true, core.Options{})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref, err := oracle.MatchBaseline(g, p, 8, pre.CI)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("step %d: prebuilt baseline differs from cold CSR:\ngot  %+v\nwant %+v", step, warm, cold)
				}
				assertSameAnswers(t, fmt.Sprintf("step %d prebuilt-vs-reference", step), warm, ref)

				// The engine family consumes CI and product from Prebuilt
				// but always re-runs propagation on its own counters.
				eWarm, err := core.TopK(g, p, 5, core.Options{Prebuilt: pre})
				if err != nil {
					t.Fatalf("step %d engine: %v", step, err)
				}
				eCold, err := core.TopK(g, p, 5, core.Options{})
				if err != nil {
					t.Fatalf("step %d engine: %v", step, err)
				}
				if !reflect.DeepEqual(eWarm, eCold) {
					t.Fatalf("step %d: prebuilt engine differs from cold engine:\ngot  %+v\nwant %+v", step, eWarm, eCold)
				}
			}

			check(-1)
			for step := 0; step < 10; step++ {
				d := core.RandomAdvDelta(rng, g, labels)
				g2, err := graph.ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				inc2, _, err := simulation.IncCompute(inc, g2, d, simulation.IncOptions{})
				if errors.Is(err, simulation.ErrIncFallback) {
					inc2, err = simulation.NewIncState(g2, p, 0), nil
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				g, inc = g2, inc2
				check(step)
			}
		})
	}
}

// assertSameAnswers compares the answer content of two results while
// tolerating kernel-internal representation differences (the reference
// kernel builds its relevant-set space in the same canonical order, so in
// practice everything but private bitset backing arrays matches).
func assertSameAnswers(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.GlobalMatch != b.GlobalMatch {
		t.Fatalf("%s: GlobalMatch %v vs %v", label, a.GlobalMatch, b.GlobalMatch)
	}
	if len(a.All) != len(b.All) {
		t.Fatalf("%s: |All| %d vs %d", label, len(a.All), len(b.All))
	}
	for i := range a.All {
		x, y := a.All[i], b.All[i]
		if x.Node != y.Node || x.Relevance != y.Relevance || x.Upper != y.Upper || x.Exact != y.Exact {
			t.Fatalf("%s: All[%d] %+v vs %+v", label, i, x, y)
		}
		switch {
		case (x.R == nil) != (y.R == nil):
			t.Fatalf("%s: All[%d] relevant-set presence differs", label, i)
		case x.R != nil && !x.R.Equal(y.R):
			t.Fatalf("%s: All[%d] relevant sets differ", label, i)
		}
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("%s: |Matches| %d vs %d", label, len(a.Matches), len(b.Matches))
	}
	if a.Cuo != b.Cuo {
		t.Fatalf("%s: Cuo %v vs %v", label, a.Cuo, b.Cuo)
	}
}
