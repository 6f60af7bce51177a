package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// Lambda reproduces the λ-sensitivity finding of §6 Exp-3: "both algorithms
// are not sensitive to the change of λ" (TopKDiv slightly faster at λ=0
// where it degenerates to Match).
func Lambda(sc Scale) *Figure {
	d := newDatasets(sc)
	g := d.amazon()
	ps := d.patternsFor(g, 4, 8, true, false)
	f := &Figure{
		ID: "lambda", Title: "time and F vs λ, k=10, |Q|=(4,8) (Amazon-like)",
		XLabel: "lambda", YLabel: "ms / F",
		Series: []string{"TopKDiv(ms)", "TopKDH(ms)", "F[TopKDiv]", "F[TopKDH]"},
		Notes:  "running times essentially flat in λ",
	}
	for i := 0; i <= 10; i += 2 {
		lambda := float64(i) / 10
		div := runDiv(d, g, ps, sc.K, lambda, "topkdiv")
		dh := runDiv(d, g, ps, sc.K, lambda, "topkdh")
		f.Rows = append(f.Rows, Row{
			X:    fmt.Sprintf("%.1f", lambda),
			Vals: []float64{ms(div.time), ms(dh.time), div.f, dh.f},
		})
	}
	return f
}

// AblationBounds compares the three upper-bound index modes
// (core.BoundMode): the tight candidate-product bound against the
// label-count and cheap descendant-sum bounds, in examined matches (MR) and
// time.
func AblationBounds(sc Scale) *Figure {
	d := newDatasets(sc)
	n, m := sc.SynthBase[0]*2, sc.SynthBase[1]*2
	g := d.get("synthetic", n, m)
	ps := d.patternsFor(g, 4, 8, true, false)
	f := &Figure{
		ID: "ablation-bounds", Title: "upper-bound index ablation, cyclic |Q|=(4,8) (synthetic)",
		XLabel: "bound", YLabel: "MR% / ms",
		Series: []string{"MR[TopK]%", "time(ms)"},
		Notes:  "tighter bounds terminate earlier (lower MR) at higher init cost",
	}
	for _, mode := range []core.BoundMode{core.BoundTight, core.BoundLabelCount, core.BoundCheap} {
		var mr, t float64
		valid := 0
		for _, p := range ps {
			total := len(muSize(g, p))
			if total == 0 {
				continue
			}
			valid++
			res, err := timedTopK(g, p, sc.K, core.Options{Bounds: mode})
			if err != nil {
				panic(err)
			}
			mr += float64(res.res.Stats.MatchesFound) / float64(total)
			t += res.ms
		}
		if valid > 0 {
			mr /= float64(valid)
			t /= float64(valid)
		}
		f.Rows = append(f.Rows, Row{X: mode.String(), Vals: []float64{mr * 100, t}})
	}
	return f
}

// AblationShape reproduces the closing observation of §6 Exp-2: TopKDAG
// performs better for patterns with smaller height (star-shaped) than for
// deep chains.
func AblationShape(sc Scale) *Figure {
	d := newDatasets(sc)
	g := d.citation()
	f := &Figure{
		ID: "ablation-shape", Title: "pattern-shape ablation, DAG |Vp|=5 (Citation-like)",
		XLabel: "shape", YLabel: "MR% / ms",
		Series: []string{"MR[TopKDAG]%", "time(ms)"},
		Notes:  "smaller pattern height → earlier termination (lower MR, less time)",
	}
	for _, shape := range []struct {
		name string
		s    gen.Shape
	}{{"star(h=1)", gen.ShapeStar}, {"random", gen.ShapeRandom}, {"chain(h=4)", gen.ShapeChain}} {
		ps, err := gen.Suite(g, gen.PatternConfig{
			Nodes: 5, Edges: 4, Shape: shape.s, Seed: sc.Seed + 101,
		}, sc.Queries)
		if err != nil {
			panic(err)
		}
		var mr, t float64
		valid := 0
		for _, p := range ps {
			total := len(muSize(g, p))
			if total == 0 {
				continue
			}
			valid++
			res, err := timedTopK(g, p, sc.K, core.Options{})
			if err != nil {
				panic(err)
			}
			mr += float64(res.res.Stats.MatchesFound) / float64(total)
			t += res.ms
		}
		if valid > 0 {
			mr /= float64(valid)
			t /= float64(valid)
		}
		f.Rows = append(f.Rows, Row{X: shape.name, Vals: []float64{mr * 100, t}})
	}
	return f
}

type timedResult struct {
	res *core.Result
	ms  float64
}

// timedTopK runs the engine once and reports wall time in milliseconds.
func timedTopK(g *graph.Graph, p *pattern.Pattern, k int, opts core.Options) (timedResult, error) {
	start := time.Now()
	res, err := core.TopK(g, p, k, opts)
	if err != nil {
		return timedResult{}, err
	}
	return timedResult{res: res, ms: ms(time.Since(start))}, nil
}

// Fig4 reproduces the case study of Fig. 4: on the YouTube-like graph it
// runs Q1 (cyclic) and Q2 (DAG), reporting the top-2 relevant matches and
// the top-2 diversified matches with their relevant-set-induced subgraphs —
// the diversified run replaces one of the two most relevant matches with a
// more dissimilar one, as in the paper's shadowed nodes.
func Fig4(sc Scale) string {
	d := newDatasets(sc)
	g := d.youtube()
	var b strings.Builder
	for _, q := range []struct {
		name string
		p    *pattern.Pattern
	}{
		{"Q1 (cyclic: music*R>2 <-> entertainment R>2 -> music V>5000)", gen.Fig4Q1()},
		{"Q2 (DAG: comedy*R>3 -> {entertainment A>500, comedy V>7000} -> music A>800)", gen.Fig4Q2()},
	} {
		fmt.Fprintf(&b, "== Fig 4 case study: %s ==\n", q.name)
		rel, err := core.TopK(g, q.p, 2, core.Options{})
		if err != nil {
			panic(err)
		}
		if !rel.GlobalMatch || len(rel.Matches) == 0 {
			fmt.Fprintf(&b, "  no matches at this scale (%d nodes)\n", g.NumNodes())
			continue
		}
		fmt.Fprintf(&b, "top-2 relevant matches:\n")
		writeMatches(&b, g, rel.Matches, rel)
		div, err := diversify.TopKDH(g, q.p, 2, 0.5, core.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "top-2 diversified matches (λ=0.5, F=%.3f):\n", div.F)
		divRes := &core.Result{Space: rel.Space}
		writeMatches(&b, g, div.Matches, divRes)
		// Which relevant match was replaced by diversification?
		relSet := map[graph.NodeID]bool{}
		for _, m := range rel.Matches {
			relSet[m.Node] = true
		}
		var swapped []string
		for _, m := range div.Matches {
			if !relSet[m.Node] {
				swapped = append(swapped, fmt.Sprintf("%d", m.Node))
			}
		}
		sort.Strings(swapped)
		if len(swapped) > 0 {
			fmt.Fprintf(&b, "diversification replaced a top-relevant match with: %s\n", strings.Join(swapped, ", "))
		} else {
			fmt.Fprintf(&b, "diversified set equals the relevant set for this instance\n")
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func writeMatches(b *strings.Builder, g *graph.Graph, ms []core.Match, res *core.Result) {
	for _, m := range ms {
		views, _ := g.Attr(m.Node, "V")
		rate, _ := g.Attr(m.Node, "R")
		fmt.Fprintf(b, "  node %-7d %-14s V=%-8s R=%-3s δr>=%-5d |relevant subgraph|=%d\n",
			m.Node, g.Label(m.Node), views, rate, m.Relevance, relSubgraphSize(g, res, m))
	}
}

// relSubgraphSize materializes the induced subgraph of a match's relevant
// set (the graphs drawn in Fig. 4) and returns its node count.
func relSubgraphSize(g *graph.Graph, res *core.Result, m core.Match) int {
	if m.R == nil || res.Space == nil {
		return 0
	}
	nodes := res.Space.NodesOf(m.R)
	nodes = append(nodes, m.Node)
	sub, _ := graph.InducedSubgraph(g, nodes)
	return sub.NumNodes()
}

// MRScale is a supplementary experiment (not in the paper): how the match
// ratio MR of TopK develops as |G| grows at fixed density. At the paper's
// scale (millions of nodes) pattern instances have small, disjoint support
// neighborhoods and MR settles near its 40-45%; at the ~100× smaller scales
// this harness runs, one batch of leaf feeding supports most candidates and
// MR saturates — this figure documents that trend honestly so the Fig. 5a-c
// absolute values can be read in context.
func MRScale(sc Scale) *Figure {
	d := newDatasets(sc)
	f := &Figure{
		ID: "mr-scale", Title: "MR vs |G| at fixed density, cyclic |Q|=(4,8) (YouTube-like)",
		XLabel: "|V|", YLabel: "% of matches",
		Series: []string{"MR[TopK]%", "avg |Mu|"},
		Notes:  "supplementary: MR falls toward the paper's regime as |G| grows",
	}
	base := sc.YouTube[0]
	for _, mult := range []int{1, 2, 4, 8} {
		n := base * mult
		m := n * 3 // the real dataset's density, not the compensated one
		g := d.get("youtube", n, m)
		ps := d.patternsFor(g, 4, 8, true, true)
		res := runTopK(d, g, ps, sc.K, "topk", sc.Seed)
		var avgMu float64
		cnt := 0
		for _, p := range ps {
			if mu := len(muSize(g, p)); mu > 0 {
				avgMu += float64(mu)
				cnt++
			}
		}
		if cnt > 0 {
			avgMu /= float64(cnt)
		}
		f.Rows = append(f.Rows, Row{X: fmt.Sprintf("%d", n), Vals: []float64{res.mr * 100, avgMu}})
	}
	return f
}
