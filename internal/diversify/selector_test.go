package diversify

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"divtopk/internal/bitset"
	"divtopk/internal/core"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/ranking"
)

// oracleSelector is the swap selector as it was before it memoized anything:
// every one of the k+1 candidate values of F” per discovered match is
// evaluated from scratch — fresh lower bounds, fresh Jaccards over the live
// sets. It is the reference the incremental selector must reproduce bit for
// bit.
type oracleSelector struct {
	k      int
	params *ranking.DiversifyParams

	members []graph.NodeID
	handles []core.PairHandle
	swaps   int
}

func (s *oracleSelector) Begin(cuo int) { s.params.Cuo = cuo }

func (s *oracleSelector) Batch(newMatches []core.PairHandle) {
	for _, h := range newMatches {
		if len(s.members) < s.k {
			s.members = append(s.members, h.Node())
			s.handles = append(s.handles, h)
			continue
		}
		cur := s.fpp(-1, core.PairHandle{})
		bestGain, bestIdx := 0.0, -1
		for i := range s.members {
			if gain := s.fpp(i, h) - cur; gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx >= 0 {
			s.members[bestIdx] = h.Node()
			s.handles[bestIdx] = h
			s.swaps++
		}
	}
}

// fpp evaluates F” on the current members with member `replace` substituted
// by h (replace = -1 evaluates the set as-is).
func (s *oracleSelector) fpp(replace int, h core.PairHandle) float64 {
	normRel := make([]float64, len(s.members))
	sets := make([]*bitset.Set, len(s.members))
	for i := range s.members {
		m := s.handles[i]
		if i == replace {
			m = h
		}
		normRel[i] = s.params.NormRel(float64(m.Lower()))
		sets[i] = m.R()
	}
	return s.params.F(normRel, func(i, j int) float64 {
		return ranking.Distance(sets[i], sets[j])
	})
}

// teeHook feeds one engine run to both selectors and compares their member
// sequences after every batch.
type teeHook struct {
	t      *testing.T
	name   string
	fast   *swapSelector
	oracle *oracleSelector
	batch  int
}

func (h *teeHook) Begin(cuo int) { h.fast.Begin(cuo); h.oracle.Begin(cuo) }

func (h *teeHook) Batch(newMatches []core.PairHandle) {
	h.batch++
	h.fast.Batch(newMatches)
	h.oracle.Batch(newMatches)
	if !slices.Equal(h.fast.members, h.oracle.members) {
		h.t.Fatalf("%s: after batch %d (%d new matches) members = %v, from-scratch oracle has %v",
			h.name, h.batch, len(newMatches), h.fast.members, h.oracle.members)
	}
}

// TestSwapSelectorMatchesFromScratchOracle is the differential test of the
// incremental F” selector: over generated graphs × mined DAG, cyclic and
// predicate-bearing patterns × λ × k, the memoizing selector and the
// from-scratch oracle, fed by the same engine run, hold the identical member
// sequence after every batch, and TopKDH's answer is that sequence with a
// bit-identical F. The sweep includes k = 1 (zero diversity scale), λ = 0
// (likewise), λ = 1 (relevance ignored) and k above |Mu| (never swaps).
func TestSwapSelectorMatchesFromScratchOracle(t *testing.T) {
	graphs := []*graph.Graph{
		gen.YouTubeLike(1500, 9000, 3),
		gen.YouTubeLike(2500, 20000, 4),
		gen.AmazonLike(1500, 7000, 5),
		gen.Synthetic(gen.SynthConfig{N: 1200, M: 7000, Labels: 6, Seed: 6}),
	}
	var swaps, small, cases int
	for gi, g := range graphs {
		var patterns []*pattern.Pattern
		for i, tries := 0, int64(0); len(patterns) < 6 && tries < 600; tries++ {
			nodes := 3 + i%3
			p, err := gen.Generate(g, gen.PatternConfig{
				Nodes: nodes, Edges: nodes + i%2, Cyclic: i%2 == 1,
				Predicates: i%3 == 0 && gi < 2, Seed: int64(100*gi) + tries,
			})
			if err != nil {
				continue
			}
			patterns = append(patterns, p)
			i++
		}
		if len(patterns) < 4 {
			t.Fatalf("graph %d: mined only %d patterns", gi, len(patterns))
		}
		for pi, p := range patterns {
			for _, lambda := range []float64{0, 0.3, 0.5, 1} {
				for _, k := range []int{1, 2, 5, 10, 11} {
					name := fmt.Sprintf("graph %d pattern %d λ=%v k=%d", gi, pi, lambda, k)
					opts := core.Options{NumBatches: []int{16, 40}[pi%2]}

					params := ranking.DiversifyParams{Lambda: lambda, K: k}
					oparams := params
					tee := &teeHook{
						t: t, name: name,
						fast:   &swapSelector{k: k, params: &params},
						oracle: &oracleSelector{k: k, params: &oparams},
					}
					opts.Hook = tee
					eng, err := core.TopK(g, p, k, opts)
					if err != nil {
						t.Fatal(err)
					}

					got, err := TopKDH(g, p, k, lambda, opts) // installs its own hook
					if err != nil {
						t.Fatal(err)
					}
					if got.GlobalMatch != eng.GlobalMatch {
						t.Fatalf("%s: GlobalMatch %v vs %v", name, got.GlobalMatch, eng.GlobalMatch)
					}
					if !eng.GlobalMatch {
						continue
					}
					cases++
					swaps += tee.oracle.swaps
					if len(eng.All) < k {
						small++
					}

					// The oracle's members, scored on the settled engine
					// state the way TopKDH scores its own.
					byNode := make(map[graph.NodeID]core.Match, len(eng.All))
					for _, m := range eng.All {
						byNode[m.Node] = m
					}
					var want []core.Match
					for _, n := range tee.oracle.members {
						want = append(want, byNode[n])
					}
					if len(got.Matches) != len(want) {
						t.Fatalf("%s: TopKDH returned %d matches, oracle %d", name, len(got.Matches), len(want))
					}
					for i := range want {
						if got.Matches[i].Node != want[i].Node {
							t.Fatalf("%s: TopKDH member %d = %d, oracle %d", name, i, got.Matches[i].Node, want[i].Node)
						}
					}
					oparams.Cuo = eng.Cuo
					if wantF := evalF(oparams, want); math.Float64bits(got.F) != math.Float64bits(wantF) {
						t.Fatalf("%s: F = %v (%#x), oracle %v (%#x)", name,
							got.F, math.Float64bits(got.F), wantF, math.Float64bits(wantF))
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d oracle swaps, %d cases with |Mu| < k", cases, swaps, small)
	if swaps < 100 || small == 0 {
		t.Fatalf("sweep too tame: %d swaps, %d cases with |Mu| < k over %d cases", swaps, small, cases)
	}
}

// TestTopKDHOrderAndConcurrencyIndependence is the TopKDH side of the engine
// scratch's hygiene tests (internal/core has the TopK side and the
// poisoning): an answer is deeply equal whether its query is the first to
// run, follows any other query on the same goroutine, or runs among eight
// concurrent goroutines recycling each other's scratch.
func TestTopKDHOrderAndConcurrencyIndependence(t *testing.T) {
	g := gen.YouTubeLike(2500, 15000, 7)
	var run []func() (*Result, error)
	for i, tries := 0, int64(0); len(run) < 8 && tries < 800; tries++ {
		nodes := 4 + i%3
		p, err := gen.Generate(g, gen.PatternConfig{
			Nodes: nodes, Edges: nodes + 1, Cyclic: i%2 == 1, Predicates: i%3 == 0, Seed: 300 + tries,
		})
		if err != nil {
			continue
		}
		k, lambda := []int{1, 4, 10}[i%3], []float64{0, 0.5, 1}[(i/3)%3]
		run = append(run, func() (*Result, error) {
			return TopKDH(g, p, k, lambda, core.Options{})
		})
		i++
	}
	if len(run) < 8 {
		t.Fatalf("mined only %d patterns", len(run))
	}

	first := make([]*Result, len(run))
	for i, f := range run {
		// Two collections empty the engine's scratch pool (primary, then
		// victim cache): this run starts on a fresh scratch.
		runtime.GC()
		runtime.GC()
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		first[i] = res
	}
	for i := range run {
		for j := range run {
			if _, err := run[j](); err != nil {
				t.Fatal(err)
			}
			res, err := run[i]()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, first[i]) {
				t.Fatalf("query %d after query %d differs from its first-run answer", i, j)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (w + 3*n) % len(run)
				res, err := run[i]()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, first[i]) {
					t.Errorf("goroutine %d: query %d differs from its first-run answer", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
