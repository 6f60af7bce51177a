package bench

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"divtopk/internal/core"
	"divtopk/internal/graph"
)

// The wall-clock claims of §6 (Fig. 5d-h, 5j-l and the λ-sensitivity
// result). They run only when DIVTOPK_PAPER names a scale, never as part of
// go test ./...: one wall-clock pair on a shared machine proves nothing.
// Each series is the median of reps repetitions, interleaved across the
// series of a row, and a claim is checked only at the scales where its gap
// was measured to be at least twofold on every row. Everything else is
// printed as "not asserted: gap inside noise".

const reps = 5

var bothScales = []string{"small", "medium"}

// paperScale returns the scale DIVTOPK_PAPER names, or skips the test.
func paperScale(t *testing.T) scale {
	switch v := os.Getenv("DIVTOPK_PAPER"); v {
	case "":
		t.Skip("wall-clock claims run on request: DIVTOPK_PAPER=small|medium")
	case "small":
		return small
	case "medium":
		return medium
	default:
		t.Fatalf("DIVTOPK_PAPER=%q: want small or medium", v)
	}
	return scale{}
}

// series is one timed line of a figure: run answers query i of a row once.
type series struct {
	name string
	run  func(t testing.TB, d *datasets, r row, i int)
}

// algo times one of the paper's algorithms at the row's k and λ.
func algo(name string) series {
	return series{name, func(t testing.TB, d *datasets, r row, i int) {
		runAlgo(t, d, r, i, r.lambda, name)
	}}
}

// atLambda0 times a diversified algorithm at λ = 0 whatever the row's λ.
func atLambda0(name string) series {
	return series{name + "(λ=0)", func(t testing.TB, d *datasets, r row, i int) {
		runAlgo(t, d, r, i, 0, name)
	}}
}

// runAlgo answers query i of r once with one of the paper's algorithms.
func runAlgo(t testing.TB, d *datasets, r row, i int, lambda float64, algo string) {
	t.Helper()
	p := r.ps[i]
	var err error
	switch algo {
	case "Match":
		_, err = core.MatchBaseline(r.g, p, r.k, false)
	case "TopK":
		_, err = core.TopK(r.g, p, r.k, core.Options{Cache: d.boundsFor(r.g)})
	case "TopKnopt":
		_, err = core.TopK(r.g, p, r.k, core.Options{Strategy: core.StrategyRandom, Seed: d.sc.seed + int64(i), Cache: d.boundsFor(r.g)})
	case "TopKDiv", "TopKDH":
		diversified(t, d, r.g, p, r.k, lambda, algo)
	default:
		panic("bench: unknown algorithm " + algo)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// timingClaim compares two series of a figure row by row.
type timingClaim struct {
	// On every row, t(slow) ≥ 2·t(fast) is checked at the scales listed in at.
	fast, slow string
	// paper is what the paper reports.
	paper string
	// deviation marks a pinned reversal: fast is the series the paper
	// reports as the slower one (or, for λ, as equally fast).
	deviation bool
	// at lists the scales at which the twofold gap was measured on every
	// row; elsewhere the claim is printed only.
	at []string
}

type timingFigure struct {
	id, title string
	series    []series
	rows      func(t *testing.T, d *datasets) []row
	claims    []timingClaim
}

// TestPaperTimings times every figure at the requested scale, prints its
// table, and checks each claim the scale asserts or pins.
func TestPaperTimings(t *testing.T) {
	sc := paperScale(t)
	d := datasetsFor(sc)
	for _, f := range timingFigures() {
		t.Run(f.id, func(t *testing.T) {
			rows := f.rows(t, d)
			times := make([][]time.Duration, len(rows))
			var cells [][]string
			for ri, r := range rows {
				times[ri] = measure(t, d, r, f.series)
				cells = append(cells, []string{r.x})
				for _, ts := range times[ri] {
					cells[ri] = append(cells[ri], fmt.Sprintf("%.2f", ms(ts)))
				}
			}
			header := []string{"x"}
			for _, s := range f.series {
				header = append(header, s.name+"(ms)")
			}
			t.Log("\n" + table(fmt.Sprintf("%s: %s [%s, median of %d]", f.id, f.title, sc.name, reps), header, cells))
			for _, c := range f.claims {
				checkTimingClaim(t, sc, f, c, rows, times)
			}
		})
	}
}

// measure times every series on every query of r, reps times after one
// untimed warm-up pass. The series run interleaved, in an order rotated per
// repetition, so drift in the machine's speed spreads over all of them.
func measure(t *testing.T, d *datasets, r row, ss []series) []time.Duration {
	samples := make([][]time.Duration, len(ss))
	for rep := -1; rep < reps; rep++ {
		for j := range ss {
			si := (j + max(rep, 0)) % len(ss)
			start := time.Now()
			for i := range r.ps {
				ss[si].run(t, d, r, i)
			}
			if rep >= 0 {
				samples[si] = append(samples[si], time.Since(start)/time.Duration(len(r.ps)))
			}
		}
	}
	out := make([]time.Duration, len(ss))
	for si, s := range samples {
		slices.Sort(s)
		out[si] = s[len(s)/2]
	}
	return out
}

func checkTimingClaim(t *testing.T, sc scale, f timingFigure, c timingClaim, rows []row, times [][]time.Duration) {
	fast := slices.IndexFunc(f.series, func(s series) bool { return s.name == c.fast })
	slow := slices.IndexFunc(f.series, func(s series) bool { return s.name == c.slow })
	if fast < 0 || slow < 0 {
		t.Fatalf("%s: claim names series %q and %q that the figure lacks", f.id, c.fast, c.slow)
	}
	ratios := make([]string, len(rows))
	failed := ""
	for ri, r := range rows {
		ratio := float64(times[ri][slow]) / float64(times[ri][fast])
		ratios[ri] = fmt.Sprintf("%s:%.2f", r.x, ratio)
		if ratio < 2 && failed == "" {
			failed = r.x
		}
	}
	what := fmt.Sprintf("%s/%s per row [%s] (paper: %s)", c.slow, c.fast, strings.Join(ratios, ", "), c.paper)
	switch {
	case !slices.Contains(c.at, sc.name):
		t.Logf("not asserted: gap inside noise: %s", what)
	case failed == "":
		if c.deviation {
			t.Logf("known deviation, pinned: %s", what)
		} else {
			t.Logf("asserted: %s", what)
		}
	case c.deviation:
		t.Errorf("known deviation no longer reproduces at %s: %s is not 2× faster than %s at row %s: %s; re-measure and update the pin",
			sc.name, c.fast, c.slow, failed, what)
	default:
		t.Errorf("claim fails at %s: %s is not 2× faster than %s at row %s: %s", sc.name, c.fast, c.slow, failed, what)
	}
}

func timingFigures() []timingFigure {
	matchSeries := []series{algo("Match"), algo("TopKnopt"), algo("TopK")}
	divSeries := []series{algo("TopKDiv"), algo("TopKDH")}
	return []timingFigure{
		{
			id: "fig5d", title: "time vs |Q|, cyclic patterns (YouTube-like)", series: matchSeries,
			rows: func(t *testing.T, d *datasets) []row {
				return sizeLadder(t, d, d.youtube(), youtubeSizes, true, true, 0)
			},
			claims: []timingClaim{
				{fast: "TopK", slow: "Match", paper: "TopK takes ≈ 52% of Match's time"},
				{fast: "TopKnopt", slow: "Match", paper: "TopKnopt takes ≈ 64% of Match's time"},
			},
		},
		{
			id: "fig5e", title: "time vs |Q|, DAG patterns (Citation-like)", series: matchSeries,
			rows: func(t *testing.T, d *datasets) []row {
				return sizeLadder(t, d, d.citation(), citationSizes, false, false, 0)
			},
			claims: []timingClaim{
				{fast: "TopK", slow: "Match", paper: "TopKDAG takes ≈ 36% of Match's time"},
			},
		},
		{
			id: "fig5f", title: "time vs k, cyclic |Q|=(4,8) (Amazon-like)", series: matchSeries,
			rows: func(t *testing.T, d *datasets) []row {
				g := d.amazon()
				ps := d.patternsFor(t, g, 4, 8, true, false)
				var rows []row
				for _, k := range kLadder {
					rows = append(rows, row{x: fmt.Sprint(k), g: g, ps: ps, k: k})
				}
				return rows
			},
			// Reversed: on the Amazon-like graph (8 labels, 30 % reciprocal
			// edges) the engine's relevance propagation costs more than the
			// find-all pass. Measured: TopK and TopKnopt 8.5-12× slower than
			// Match at small, 22-30× at medium.
			claims: []timingClaim{
				{fast: "Match", slow: "TopK", paper: "TopK grows with k but stays below Match", deviation: true, at: bothScales},
				{fast: "Match", slow: "TopKnopt", paper: "TopKnopt grows with k but stays below Match", deviation: true, at: bothScales},
			},
		},
		{
			id: "fig5g", title: "time vs |G|, DAG |Q|=(4,6) (synthetic)", series: matchSeries,
			rows: func(t *testing.T, d *datasets) []row { return synthSweep(t, d, 4, 6, false, 0) },
			claims: []timingClaim{
				{fast: "TopK", slow: "Match", paper: "TopKDAG takes ≈ 38% of Match's time across the sweep"},
			},
		},
		{
			id: "fig5h", title: "time vs |G|, cyclic |Q|=(4,8) (synthetic)", series: matchSeries,
			rows: func(t *testing.T, d *datasets) []row { return synthSweep(t, d, 4, 8, true, 0) },
			claims: []timingClaim{
				{fast: "TopK", slow: "Match", paper: "TopK takes ≈ 49% of Match's time across the sweep"},
				{fast: "TopKnopt", slow: "Match", paper: "TopKnopt takes ≈ 56% of Match's time across the sweep"},
			},
		},
		{
			id: "fig5j", title: "time vs |Q|, diversified, DAG patterns, λ=0.5 (Citation-like)", series: divSeries,
			rows: func(t *testing.T, d *datasets) []row {
				return sizeLadder(t, d, d.citation(), smallDAGSizes, false, false, 0.5)
			},
			claims: []timingClaim{
				{fast: "TopKDH", slow: "TopKDiv", paper: "TopKDAGDH takes ≈ 42% of TopKDiv's time"},
			},
		},
		{
			id: "fig5k", title: "time vs |Q|, diversified, cyclic patterns, λ=0.5 (YouTube-like)", series: divSeries,
			rows: func(t *testing.T, d *datasets) []row {
				return sizeLadder(t, d, d.youtube(), youtubeSizes, true, true, 0.5)
			},
			claims: []timingClaim{
				{fast: "TopKDH", slow: "TopKDiv", paper: "the early-termination heuristic wins, as in Fig. 5j"},
			},
		},
		{
			id: "fig5l", title: "time vs |G|, diversified, cyclic |Q|=(4,8), λ=0.5 (synthetic)", series: divSeries,
			rows: func(t *testing.T, d *datasets) []row { return synthSweep(t, d, 4, 8, true, 0.5) },
			claims: []timingClaim{
				{fast: "TopKDH", slow: "TopKDiv", paper: "TopKDiv grows faster with |G|: it computes all of M(Q,G)"},
			},
		},
		{
			id: "lambda", title: "time vs λ, k=10, cyclic |Q|=(4,8) (Amazon-like)",
			series: []series{atLambda0("TopKDiv"), algo("TopKDiv"), atLambda0("TopKDH"), algo("TopKDH")},
			rows: func(t *testing.T, d *datasets) []row {
				g := d.amazon()
				ps := d.patternsFor(t, g, 4, 8, true, false)
				var rows []row
				for _, lambda := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
					rows = append(rows, row{x: fmt.Sprintf("λ=%.1f", lambda), g: g, ps: ps, k: d.sc.k, lambda: lambda})
				}
				return rows
			},
			// At λ = 0 the pair objective F' ignores distance, so the greedy
			// scan's distance-1 bound prunes it to the head of the relevance
			// order; at λ > 0 it computes Jaccard distances for most pairs.
			// Measured: TopKDiv 19-21× slower at λ ≥ 0.2 than at λ = 0
			// at small, 47-84× at medium. TopKDH is flat (0.88-1.12×),
			// as the paper says, but flatness has no twofold direction.
			claims: []timingClaim{
				{fast: "TopKDiv(λ=0)", slow: "TopKDiv", paper: "running time is flat in λ", deviation: true, at: bothScales},
				{fast: "TopKDH(λ=0)", slow: "TopKDH", paper: "running time is flat in λ"},
			},
		},
	}
}

// sizeLadder is one row per pattern size on g.
func sizeLadder(t *testing.T, d *datasets, g *graph.Graph, sizes [][2]int, cyclic, preds bool, lambda float64) []row {
	var rows []row
	for _, s := range sizes {
		rows = append(rows, row{x: sizeX(s), g: g, ps: d.patternsFor(t, g, s[0], s[1], cyclic, preds), k: d.sc.k, lambda: lambda})
	}
	return rows
}

// synthSweep is one row per synthetic graph size (Fig. 5g/h/l).
func synthSweep(t *testing.T, d *datasets, nodes, edges int, cyclic bool, lambda float64) []row {
	var rows []row
	for _, step := range d.sc.synthSteps {
		g := d.synthetic(step)
		rows = append(rows, row{x: fmt.Sprintf("%.1fx", step), g: g, ps: d.patternsFor(t, g, nodes, edges, cyclic, false), k: d.sc.k, lambda: lambda})
	}
	return rows
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
