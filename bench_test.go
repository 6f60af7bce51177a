package divtopk

// Benchmark harness entry points: one benchmark per table/figure of the
// paper's evaluation (Fig. 5a-l), the Fig. 4 case study, the λ-sensitivity
// result, the two ablations, and the supplementary MR-vs-scale trend.
//
// Effectiveness figures (MR, F) are exposed through b.ReportMetric as custom
// benchmark metrics ("MR%", "F") next to the timing ones, so a single
//
//	go test -bench=. -benchmem
//
// regenerates every number of the paper-figure tables at the small scale
// (cmd/experiments -scale medium prints the full tables).

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"divtopk/internal/bench"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// reportFigure runs one harness experiment per benchmark iteration and
// reports the last row's series as metrics (the full tables come from
// cmd/experiments; benchmarks track regressions).
func reportFigure(b *testing.B, run func(bench.Scale) *bench.Figure) {
	b.Helper()
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		fig = run(bench.ScaleSmall)
	}
	if fig == nil || len(fig.Rows) == 0 {
		b.Fatal("empty figure")
	}
	// Average each series across rows and report it under the series name
	// (units must be whitespace-free for ReportMetric).
	for si, name := range fig.Series {
		sum := 0.0
		for _, r := range fig.Rows {
			sum += r.Vals[si]
		}
		b.ReportMetric(sum/float64(len(fig.Rows)), strings.ReplaceAll(name, " ", "_"))
	}
}

func BenchmarkFig5a(b *testing.B) { reportFigure(b, bench.Fig5a) }
func BenchmarkFig5b(b *testing.B) { reportFigure(b, bench.Fig5b) }
func BenchmarkFig5c(b *testing.B) { reportFigure(b, bench.Fig5c) }
func BenchmarkFig5d(b *testing.B) { reportFigure(b, bench.Fig5d) }
func BenchmarkFig5e(b *testing.B) { reportFigure(b, bench.Fig5e) }
func BenchmarkFig5f(b *testing.B) { reportFigure(b, bench.Fig5f) }
func BenchmarkFig5g(b *testing.B) { reportFigure(b, bench.Fig5g) }
func BenchmarkFig5h(b *testing.B) { reportFigure(b, bench.Fig5h) }
func BenchmarkFig5i(b *testing.B) { reportFigure(b, bench.Fig5i) }
func BenchmarkFig5j(b *testing.B) { reportFigure(b, bench.Fig5j) }
func BenchmarkFig5k(b *testing.B) { reportFigure(b, bench.Fig5k) }
func BenchmarkFig5l(b *testing.B) { reportFigure(b, bench.Fig5l) }

func BenchmarkFig4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Fig4(bench.ScaleSmall)
	}
	if out == "" {
		b.Fatal("empty case study")
	}
}

func BenchmarkLambda(b *testing.B)         { reportFigure(b, bench.Lambda) }
func BenchmarkAblationBounds(b *testing.B) { reportFigure(b, bench.AblationBounds) }
func BenchmarkAblationShape(b *testing.B)  { reportFigure(b, bench.AblationShape) }
func BenchmarkMRScaleTrend(b *testing.B)   { reportFigure(b, bench.MRScale) }

// Sequential-vs-parallel benchmarks. The pair
// BenchmarkBuildCandidatesSequential / BenchmarkBuildCandidatesParallel (and
// likewise the TopKDiv pair) measures the same deterministic computation on
// a 150k-node generator graph with one worker versus all cores; on a >= 4
// core machine the parallel variant should win by well over 1.5x. See also
// BenchmarkParallelScaling for the full worker-count sweep.

var parallelBenchState struct {
	once sync.Once
	g    *Graph
	q    *Pattern
	gg   *graph.Graph
	pp   *pattern.Pattern
}

// parallelBenchInputs generates (once) the large graph and pattern shared by
// the sequential-vs-parallel benchmarks.
func parallelBenchInputs(b *testing.B) (*Graph, *Pattern, *graph.Graph, *pattern.Pattern) {
	b.Helper()
	s := &parallelBenchState
	s.once.Do(func() {
		s.g = NewYouTubeLike(150_000, 750_000, 1)
		q, err := GeneratePattern(s.g, 6, 10, true, true, 5)
		if err != nil {
			panic(err)
		}
		s.q = q
		s.gg = s.g.Unwrap().(*graph.Graph)
		s.pp = q.UnwrapPattern().(*pattern.Pattern)
	})
	return s.g, s.q, s.gg, s.pp
}

func benchBuildCandidates(b *testing.B, workers int) {
	_, _, gg, pp := parallelBenchInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci := simulation.BuildCandidatesParallel(gg, pp, workers)
		if ci.NumPairs() == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkBuildCandidatesSequential(b *testing.B) { benchBuildCandidates(b, 1) }
func BenchmarkBuildCandidatesParallel(b *testing.B)   { benchBuildCandidates(b, 0) }

func benchTopKDiv(b *testing.B, workers int) {
	g, q, _, _ := parallelBenchInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, q, 10, 0.5, WithApproximation(), Parallelism(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKDivSequential(b *testing.B) { benchTopKDiv(b, 1) }
func BenchmarkTopKDivParallel(b *testing.B)   { benchTopKDiv(b, 0) }

// BenchmarkParallelScaling runs the harness's worker-count sweep (see
// internal/bench.ParallelScaling) and reports the parallel speedups as
// metrics.
func BenchmarkParallelScaling(b *testing.B) { reportFigure(b, bench.ParallelScaling) }

// BenchmarkQueryTopK measures a single early-termination query end to end
// on a prebuilt graph (the per-query latency a library user sees).
func BenchmarkQueryTopK(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := TopK(g, q, 10); err != nil { // warm the bound cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBaseline is the find-all counterpart of BenchmarkQueryTopK.
func BenchmarkQueryBaseline(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, q, 10, WithBaseline()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryDiversified measures the diversified heuristic end to end.
func BenchmarkQueryDiversified(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := TopKDiversified(g, q, 10, 0.5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, q, 10, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// Cold-path benchmarks: the tracked benchmark's cold_paper inputs in process
// — a YouTube-like 15k/90k graph, mined patterns cycling |Vp| ∈ {4,5,6},
// every second one cyclic, every third with predicates — each iteration one
// uncached query, patterns round-robin. With -benchmem the B/op column is the
// per-query allocation figure the engine scratch budget test pins.

var coldBenchState struct {
	once     sync.Once
	g        *Graph
	patterns []*Pattern
}

func coldBenchInputs(b *testing.B) (*Graph, []*Pattern) {
	b.Helper()
	s := &coldBenchState
	s.once.Do(func() {
		s.g = NewYouTubeLike(15_000, 90_000, 1)
		for i, tries := 0, int64(0); len(s.patterns) < 128 && tries < 5000; tries++ {
			nodes := 4 + i%3
			q, err := GeneratePattern(s.g, nodes, nodes+1+(i/3)%2, i%2 == 1, i%3 == 0, 1_000_003+tries)
			if err != nil {
				continue
			}
			s.patterns = append(s.patterns, q)
			i++
		}
	})
	if len(s.patterns) == 0 {
		b.Fatal("no patterns mined")
	}
	return s.g, s.patterns
}

func BenchmarkTopKCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	if _, err := TopK(g, patterns[0], 10, Parallelism(1)); err != nil { // warm the bound index
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, patterns[i%len(patterns)], 10, Parallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKDHCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	if _, err := TopKDiversified(g, patterns[0], 10, 0.5, Parallelism(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, patterns[i%len(patterns)], 10, 0.5, Parallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitWarm is the commit path of a caching session in process, on
// the tracked benchmark's serve_zipf shape: a synthetic 10k/70k graph with 24
// labels, maxWarmPatterns mined patterns each maintained with the four
// algorithms (k = 10, λ = 0.5), and the benchmark's 60/20/20
// append/insert/delete plan aimed at the label edges of the eight hottest.
// One iteration is one commit — graph apply, bound-index advance and the warm
// advance pass — followed by a read of the four shapes of one pattern in turn
// (cache hits: microseconds beside the commit's milliseconds), so that every
// shape is read once in maxWarmPatterns commits and none ages out of the pass
// (maxWarmIdle). Beside ms/commit and B/commit it reports what the pass did
// per commit: answers re-evaluated and carried, and its own share of the time.
func BenchmarkCommitWarm(b *testing.B) {
	g := NewSynthetic(10_000, 70_000, 24, 1)
	patterns := minedDistinct(b, g, maxWarmPatterns, 1)
	m := NewMatcher(g, WithCache(4096))
	for _, q := range patterns {
		for _, kind := range allKinds {
			if _, _, err := askKind(m, q, kind, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	plan := newChurnPlan(rand.New(rand.NewSource(1)), g, patterns[:8])
	plan.aimedOnly = true

	var reevals, carried, warmUs int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := m.UpdateWithStats(plan.next())
		if err != nil {
			b.Fatal(err)
		}
		reevals += st.WarmReevaluated
		carried += st.WarmCarried
		warmUs += int(st.WarmMicros)
		for _, kind := range allKinds {
			if _, _, err := askKind(m, patterns[i%len(patterns)], kind, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/n, "ms/commit")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/commit")
	b.ReportMetric(float64(reevals)/n, "reevals/commit")
	b.ReportMetric(float64(carried)/n, "carried/commit")
	b.ReportMetric(float64(warmUs)/1e3/n, "warm-ms/commit")
}
