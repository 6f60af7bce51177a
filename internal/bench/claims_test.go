package bench

import (
	"fmt"
	"slices"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// The deterministic claims of §6, on the gate scale's datasets. None depends on a
// clock: each fixes the generated graphs and patterns, so a measured value
// moves only when the engine, the generators or the heuristics change.

// TestFig5MatchRatio pins a known deviation. The paper's TopK examines
// ≈ 45 % of the output node's matches on cyclic patterns (Fig. 5a), ≈ 40 %
// on DAG patterns (5b), and 42 % rising to 69 % as k grows from 5 to 30
// (5c); the nopt variants examine more. Here TopK and TopKnopt examine
// every match — MR = 100 % — on every pattern of every row.
//
// The bound is not the cause: with exact upper bounds the engine still
// examines 88-100 % of the matches (ROADMAP item 2). Nor is the graph size:
// on YouTube-like graphs of fixed density grown from 12k to 96k nodes MR
// stayed at 100 %. The engine stops before the feed runs out, but the
// leaves it skips lie outside the output node's descendant region.
//
// If this test fails with a lower MR, early termination has started to
// save matches: replace the pin with the paper's claims (MR below 100 %,
// TopK below nopt, MR growing with k) and update ROADMAP item 2.
func TestFig5MatchRatio(t *testing.T) {
	d := datasetsFor(gate)
	figures := []struct {
		id, title string
		rows      []row
	}{
		{id: "fig5a", title: "MR vs |Q|, cyclic patterns (YouTube-like)"},
		{id: "fig5b", title: "MR vs |Q|, DAG patterns (Citation-like)"},
		{id: "fig5c", title: "MR vs k, cyclic |Q|=(4,8) (Amazon-like)"},
	}
	for _, s := range youtubeSizes {
		g := d.youtube()
		figures[0].rows = append(figures[0].rows, row{x: sizeX(s), g: g, ps: d.patternsFor(t, g, s[0], s[1], true, true), k: gate.k})
	}
	for _, s := range citationSizes {
		g := d.citation()
		figures[1].rows = append(figures[1].rows, row{x: sizeX(s), g: g, ps: d.patternsFor(t, g, s[0], s[1], false, false), k: gate.k})
	}
	amazon := d.amazon()
	amazonPs := d.patternsFor(t, amazon, 4, 8, true, false)
	for _, k := range kLadder {
		figures[2].rows = append(figures[2].rows, row{x: fmt.Sprint(k), g: amazon, ps: amazonPs, k: k})
	}

	for _, f := range figures {
		t.Run(f.id, func(t *testing.T) {
			var rows [][]string
			for _, r := range f.rows {
				cache := d.boundsFor(r.g)
				topk := matchRatio(t, r.g, r.ps, r.k, func(int) core.Options { return core.Options{Cache: cache} })
				nopt := matchRatio(t, r.g, r.ps, r.k, func(i int) core.Options {
					return core.Options{Strategy: core.StrategyRandom, Seed: gate.seed + int64(i), Cache: cache}
				})
				rows = append(rows, []string{r.x, pct(mean(topk)), pct(mean(nopt))})
				for algo, mr := range map[string][]float64{"TopK": topk, "TopKnopt": nopt} {
					if slices.Min(mr) != 1 {
						t.Errorf("%s %s %s: MR per pattern %v, pinned at 100%%", f.id, r.x, algo, mr)
					}
				}
			}
			t.Log("\n" + table(f.id+": "+f.title, []string{"x", "MR[TopK]", "MR[TopKnopt]"}, rows))
		})
	}
}

// TestFig5iDiversificationQuality asserts the claim of Fig. 5i: the
// early-termination heuristic TopKDH keeps at least 77 % of the
// diversification objective F of the 2-approximation TopKDiv (its worst
// case in the paper) on every row. Both selections are scored with the
// exact F. Measured: the worst row is at 0.95.
func TestFig5iDiversificationQuality(t *testing.T) {
	const lambda = 0.5
	d := datasetsFor(gate)
	g := d.amazon()
	var rows [][]string
	for _, s := range youtubeSizes {
		var fDiv, fDH float64
		valid := 0
		for _, p := range d.patternsFor(t, g, s[0], s[1], true, false) {
			div := diversified(t, d, g, p, gate.k, lambda, "TopKDiv")
			dh := diversified(t, d, g, p, gate.k, lambda, "TopKDH")
			if div == nil || dh == nil {
				continue
			}
			valid++
			fDiv += exactF(t, g, p, div, lambda, gate.k)
			fDH += exactF(t, g, p, dh, lambda, gate.k)
		}
		if valid == 0 {
			t.Fatalf("fig5i %s: no pattern matches", sizeX(s))
		}
		fDiv /= float64(valid)
		fDH /= float64(valid)
		rows = append(rows, []string{sizeX(s), fmt.Sprintf("%.3f", fDiv), fmt.Sprintf("%.3f", fDH), fmt.Sprintf("%.2f", fDH/fDiv)})
		if fDH < 0.77*fDiv {
			t.Errorf("fig5i %s: F[TopKDH] = %.3f < 0.77 · F[TopKDiv] = %.3f", sizeX(s), fDH, 0.77*fDiv)
		}
	}
	t.Log("\n" + table("fig5i: F vs |Q|, λ=0.5, k=10 (Amazon-like)", []string{"|Q|", "F[TopKDiv]", "F[TopKDH]", "DH/Div"}, rows))
}

// TestFig4CaseStudy reproduces the case study of Fig. 4 on the YouTube-like
// graph: for Q1 (cyclic) and Q2 (DAG) at k = 2 and λ = 0.5, diversification
// replaces one of the two most relevant matches with a more dissimilar one
// (the paper's shadowed nodes). The node sets are pinned, so a change to
// the engine, the heuristic or the generator that moves them shows here.
func TestFig4CaseStudy(t *testing.T) {
	g := datasetsFor(gate).youtube()
	for _, q := range []struct {
		name          string
		p             *pattern.Pattern
		relevant, div []graph.NodeID
	}{
		{"Q1 (cyclic)", gen.Fig4Q1(), []graph.NodeID{3375, 3480}, []graph.NodeID{3480, 6551}},
		{"Q2 (DAG)", gen.Fig4Q2(), []graph.NodeID{1491, 7953}, []graph.NodeID{3820, 7953}},
	} {
		rel, err := core.TopK(g, q.p, 2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		div, err := diversify.TopKDH(g, q.p, 2, 0.5, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotRel, gotDiv := sortedNodes(rel.Matches), sortedNodes(div.Matches)
		t.Logf("Fig. 4 %s: top-2 relevant %v, top-2 diversified %v (F=%.3f)", q.name, gotRel, gotDiv, div.F)
		if !slices.Equal(gotRel, q.relevant) || !slices.Equal(gotDiv, q.div) {
			t.Errorf("%s: relevant %v, diversified %v; pinned %v and %v", q.name, gotRel, gotDiv, q.relevant, q.div)
		}
		replaced := false
		for _, n := range gotDiv {
			replaced = replaced || !slices.Contains(gotRel, n)
		}
		if !replaced {
			t.Errorf("%s: diversification kept the relevant set %v", q.name, gotRel)
		}
	}
}

// TestShapeAblation asserts the closing observation of §6 Exp-2: TopK
// terminates earlier on patterns of small height (stars) than on deep
// chains. Measured on DAG patterns with |Vp| = 5: MR 90.0 % for stars,
// 99.6 % for chains.
func TestShapeAblation(t *testing.T) {
	d := datasetsFor(gate)
	g := d.citation()
	mr := map[gen.Shape]float64{}
	var rows [][]string
	for _, shape := range []struct {
		name string
		s    gen.Shape
	}{{"star(h=1)", gen.ShapeStar}, {"random", gen.ShapeRandom}, {"chain(h=4)", gen.ShapeChain}} {
		ps, err := gen.Suite(g, gen.PatternConfig{Nodes: 5, Edges: 4, Shape: shape.s, Seed: gate.seed + 101}, gate.queries)
		if err != nil {
			t.Fatal(err)
		}
		mr[shape.s] = mean(matchRatio(t, g, ps, gate.k, func(int) core.Options { return core.Options{} }))
		rows = append(rows, []string{shape.name, pct(mr[shape.s])})
	}
	t.Log("\n" + table("pattern-shape ablation, DAG |Vp|=5 (Citation-like)", []string{"shape", "MR[TopK]"}, rows))
	if mr[gen.ShapeStar] >= mr[gen.ShapeChain] {
		t.Errorf("MR(star) = %s, not below MR(chain) = %s", pct(mr[gen.ShapeStar]), pct(mr[gen.ShapeChain]))
	}
}

// TestBoundsAblation pins a known deviation. The paper's tighter upper
// bounds terminate earlier; here the tight, label-count and cheap bounds
// all examine every match (MR = 100 %) on cyclic |Q| = (4,8) patterns of
// the synthetic graph, so the bound is not what holds MR up (ROADMAP
// item 2): even the cheap bound divided by 16 leaves MR at 100 %, and only
// h = 0, an unsound bound, lowers it (to 35-76 %).
func TestBoundsAblation(t *testing.T) {
	d := datasetsFor(gate)
	g := d.synthetic(2)
	ps := d.patternsFor(t, g, 4, 8, true, false)
	var rows [][]string
	for _, mode := range []core.BoundMode{core.BoundTight, core.BoundLabelCount, core.BoundCheap} {
		mr := matchRatio(t, g, ps, gate.k, func(int) core.Options { return core.Options{Bounds: mode} })
		rows = append(rows, []string{mode.String(), pct(mean(mr))})
		if slices.Min(mr) != 1 {
			t.Errorf("%s bounds: MR per pattern %v, pinned at 100%%", mode, mr)
		}
	}
	t.Log("\n" + table("upper-bound ablation, cyclic |Q|=(4,8) (synthetic)", []string{"bound", "MR[TopK]"}, rows))
}

func sizeX(s [2]int) string { return fmt.Sprintf("(%d,%d)", s[0], s[1]) }

func sortedNodes(ms []core.Match) []graph.NodeID {
	out := make([]graph.NodeID, len(ms))
	for i, m := range ms {
		out[i] = m.Node
	}
	slices.Sort(out)
	return out
}
