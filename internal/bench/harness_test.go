// Package bench reproduces the paper's evaluation (§6: Fig. 4, Fig. 5a-l,
// the λ-sensitivity result, and the bound and pattern-shape ablations) as
// tests. Every claim is either asserted or pinned as a known deviation that
// records its measured value, so a change that fixes or worsens a claim
// fails loudly instead of shifting a number in a printed table.
//
// The package is test-only and has two halves:
//
//   - The default run (go test ./internal/bench) checks the deterministic
//     claims — match ratios, diversification quality, the Fig. 4 case
//     study — on the gate scale, the small datasets with a halved
//     Amazon-like graph (claims_test.go).
//   - The wall-clock claims run only on request, at the scale named by
//     DIVTOPK_PAPER=small|medium (timing_test.go; `make paper`). Each is the
//     median of interleaved repetitions and is asserted, or pinned as
//     reversed, only where the gap is at least twofold.
//
// go test -v prints every table either way. The graphs are ~100× smaller
// than the paper's and substituted by the seeded generators of
// internal/gen, so the claims checked are about shape (who wins, how trends
// move), not absolute values.
package bench

import (
	"fmt"
	"strings"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// scale fixes the dataset sizes of a run.
type scale struct {
	name string
	// Dataset sizes as (nodes, edges). Densities are ~3× the real datasets'
	// average degree: at ~100× fewer nodes than the paper's graphs this
	// restores the match multiplicity its experiments operate in (hundreds
	// of matches per query, e.g. ≥ 180 for YouTube |Q| = (4,8), §6 Exp-1).
	youtube, citation, amazon [2]int
	// synthBase is the 1.0× size of the scalability sweeps (Fig. 5g/h/l);
	// the sweep multiplies it by synthSteps, like the paper's 1M..2.8M axis.
	synthBase  [2]int
	synthSteps []float64
	// queries is the number of generated patterns per data point.
	queries int
	// k is the default k (the paper fixes k = 10 unless k is the x axis).
	k    int
	seed int64
}

// small is the scale of DIVTOPK_PAPER=small.
var small = scale{
	name:       "small",
	youtube:    [2]int{12_000, 120_000},
	citation:   [2]int{12_000, 110_000},
	amazon:     [2]int{10_000, 100_000},
	synthBase:  [2]int{6_000, 58_000},
	synthSteps: []float64{1.0, 1.6, 2.2, 2.8},
	queries:    3,
	k:          10,
	seed:       1,
}

// gate is the scale of the default run: small with the Amazon-like graph
// halved. TopK is slowest on that graph (Fig. 5f), and at full size Fig. 5c
// and 5i alone take 4.5 s; at half size Fig. 5i's quality claim keeps its
// margin (at 3k nodes one row falls to 0.76).
var gate = func() scale {
	sc := small
	sc.name = "gate"
	sc.amazon = [2]int{5_000, 50_000}
	return sc
}()

var medium = scale{
	name:       "medium",
	youtube:    [2]int{30_000, 300_000},
	citation:   [2]int{30_000, 275_000},
	amazon:     [2]int{25_000, 250_000},
	synthBase:  [2]int{10_000, 95_000},
	synthSteps: []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8},
	queries:    5,
	k:          10,
	seed:       1,
}

// Pattern-size ladders copied from the paper's x axes.
var (
	youtubeSizes  = [][2]int{{4, 8}, {5, 10}, {6, 12}, {7, 14}, {8, 16}}
	citationSizes = [][2]int{{4, 6}, {6, 9}, {8, 12}, {10, 15}}
	smallDAGSizes = [][2]int{{3, 2}, {4, 3}, {5, 4}, {6, 5}, {7, 6}}
	kLadder       = []int{5, 10, 15, 20, 25, 30}
)

// row is one x point of a figure: the patterns averaged over, on one graph,
// at one k and λ.
type row struct {
	x      string
	g      *graph.Graph
	ps     []*pattern.Pattern
	k      int
	lambda float64
}

// datasets caches generated graphs and their descendant-label bound indices
// (which the paper amortizes across queries) across the tests of one run.
// The tests of this package run one at a time, so the caches take no lock.
type datasets struct {
	sc     scale
	graphs map[string]*graph.Graph
	bounds map[*graph.Graph]*core.BoundsCache
}

var byScale = map[string]*datasets{}

func datasetsFor(sc scale) *datasets {
	if byScale[sc.name] == nil {
		byScale[sc.name] = &datasets{sc: sc, graphs: map[string]*graph.Graph{}, bounds: map[*graph.Graph]*core.BoundsCache{}}
	}
	return byScale[sc.name]
}

func (d *datasets) get(kind string, n, m int) *graph.Graph {
	key := fmt.Sprintf("%s-%d-%d", kind, n, m)
	if g, ok := d.graphs[key]; ok {
		return g
	}
	var g *graph.Graph
	switch kind {
	case "youtube":
		g = gen.YouTubeLike(n, m, d.sc.seed)
	case "citation":
		g = gen.CitationLike(n, m, d.sc.seed)
	case "amazon":
		g = gen.AmazonLike(n, m, d.sc.seed)
	case "synthetic":
		g = gen.Synthetic(gen.SynthConfig{N: n, M: m, Seed: d.sc.seed})
	default:
		panic("bench: unknown dataset " + kind)
	}
	d.graphs[key] = g
	return g
}

func (d *datasets) youtube() *graph.Graph {
	return d.get("youtube", d.sc.youtube[0], d.sc.youtube[1])
}

func (d *datasets) citation() *graph.Graph {
	return d.get("citation", d.sc.citation[0], d.sc.citation[1])
}

func (d *datasets) amazon() *graph.Graph {
	return d.get("amazon", d.sc.amazon[0], d.sc.amazon[1])
}

// synthetic returns the sweep graph at multiplier step.
func (d *datasets) synthetic(step float64) *graph.Graph {
	return d.get("synthetic", int(float64(d.sc.synthBase[0])*step), int(float64(d.sc.synthBase[1])*step))
}

// boundsFor returns g's descendant-label index, built and warmed once like
// NewMatcher's, so that no timed query pays the lazy per-label fill: the
// paper precomputes this index and excludes it from query times.
func (d *datasets) boundsFor(g *graph.Graph) *core.BoundsCache {
	if c, ok := d.bounds[g]; ok {
		return c
	}
	c := core.NewBoundsCache(g, true)
	c.Warm(nil)
	d.bounds[g] = c
	return c
}

// patternsFor mines the suite of one data point and fails the test unless
// every pattern has the shape the figure claims: a cyclic row measured on
// DAG patterns (or the reverse) would misreport the figure.
func (d *datasets) patternsFor(t testing.TB, g *graph.Graph, nodes, edges int, cyclic, preds bool) []*pattern.Pattern {
	t.Helper()
	ps, err := gen.Suite(g, gen.PatternConfig{
		Nodes: nodes, Edges: edges, Cyclic: cyclic, Predicates: preds, Seed: d.sc.seed + int64(nodes*31+edges),
	}, d.sc.queries)
	if err != nil {
		t.Fatalf("mining |Q|=(%d,%d) cyclic=%v: %v", nodes, edges, cyclic, err)
	}
	for i, p := range ps {
		if p.IsDAG() == cyclic {
			t.Fatalf("|Q|=(%d,%d) pattern %d: cyclic=%v, want %v", nodes, edges, i, !p.IsDAG(), cyclic)
		}
	}
	return ps
}

// matchRatio runs TopK once per pattern and returns MR, the share of the
// output node's matches it examined before terminating, per pattern.
func matchRatio(t testing.TB, g *graph.Graph, ps []*pattern.Pattern, k int, opts func(i int) core.Options) []float64 {
	t.Helper()
	var out []float64
	for i, p := range ps {
		total := len(simulation.Compute(g, p).MatchesOf(p.Output()))
		if total == 0 {
			continue
		}
		res, err := core.TopK(g, p, k, opts(i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, float64(res.Stats.MatchesFound)/float64(total))
	}
	if len(out) == 0 {
		t.Fatal("no pattern of the suite has a match")
	}
	return out
}

// diversified runs one diversified algorithm on p and returns its selection,
// or nil when G does not match Q.
func diversified(t testing.TB, d *datasets, g *graph.Graph, p *pattern.Pattern, k int, lambda float64, algo string) []graph.NodeID {
	t.Helper()
	var (
		res *diversify.Result
		err error
	)
	switch algo {
	case "TopKDiv":
		res, err = diversify.TopKDiv(g, p, k, lambda)
	case "TopKDH":
		res, err = diversify.TopKDH(g, p, k, lambda, core.Options{Cache: d.boundsFor(g)})
	default:
		panic("bench: unknown algorithm " + algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.GlobalMatch {
		return nil
	}
	nodes := make([]graph.NodeID, len(res.Matches))
	for i, m := range res.Matches {
		nodes[i] = m.Node
	}
	return nodes
}

// exactF scores a selection under the exact diversification function: the
// heuristic's own F uses the partial relevant sets it saw at termination.
func exactF(t testing.TB, g *graph.Graph, p *pattern.Pattern, nodes []graph.NodeID, lambda float64, k int) float64 {
	t.Helper()
	f, err := diversify.ExactF(g, p, nodes, lambda, k)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// table renders rows under a header for go test -v.
func table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, r := range append([][]string{header}, rows...) {
		for i, c := range r {
			if i == 0 {
				fmt.Fprintf(&b, "%-12s", c)
			} else {
				fmt.Fprintf(&b, " %14s", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
