package divtopk

// In-process benchmarks of the facade: the sequential and parallel sections
// of one query, single-query latency of each algorithm, the uncached-query
// pair on the tracked benchmark's cold_paper inputs, and the warm commit
// path on its serve_zipf shape. The paper's figures are reproduced as tests
// in internal/bench (go test ./internal/bench -v; DIVTOPK_PAPER=small|medium
// adds the wall-clock claims).

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// Sequential-vs-parallel benchmarks. The pair
// BenchmarkBuildCandidatesSequential / BenchmarkBuildCandidatesParallel (and
// likewise the TopKDiv pair) measures the same deterministic computation on
// a 150k-node generator graph with one worker versus all cores; on a >= 4
// core machine the parallel variant should win by well over 1.5x. The
// results are identical at every worker count: internal/diversify's
// TestKernelOracleProperty checks TopKDiv at 1-8 workers, and
// internal/simulation's incremental tests check the candidates at 1 and 8.

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
// uncached query, patterns round-robin, one benchmark per query kind (TopK,
// the find-all Match, TopKDH, the 2-approximation TopKDiv). With -benchmem
// the B/op column is the per-query allocation figure; for TopK it is the one
// the engine scratch budget test pins.

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

func BenchmarkMatchCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, patterns[i%len(patterns)], 10, WithBaseline(), Parallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKDivCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, patterns[i%len(patterns)], 10, 0.5, WithApproximation(), Parallelism(1)); err != nil {
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
