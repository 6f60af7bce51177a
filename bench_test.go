package divtopk

// In-process benchmarks of the facade: single-query latency of each
// algorithm, the uncached queries on the tracked benchmark's cold_paper
// inputs, and the warm commit path on its serve_zipf shape. The paper's
// figures are reproduced as tests in internal/bench (go test
// ./internal/bench -v; DIVTOPK_PAPER=small|medium adds the wall-clock
// claims).

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkQueryBaseline measures a single top-k query end to end on a
// prebuilt graph (the per-query latency a library user sees): the find-all
// Match cut at k, which is what TopK runs with or without WithBaseline.
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
// uncached query, patterns round-robin, one benchmark per query kind (top-k
// by the find-all Match, TopKDH, the 2-approximation TopKDiv). With -benchmem
// the B/op column is the per-query allocation figure; for TopKDH, the one
// route that runs the early-termination engine, it includes the engine
// scratch whose budget the internal/core tests pin.

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

func BenchmarkTopKDHCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	if _, err := TopKDiversified(g, patterns[0], 10, 0.5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, patterns[i%len(patterns)], 10, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, patterns[i%len(patterns)], 10, WithBaseline()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKDivCold(b *testing.B) {
	g, patterns := coldBenchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, patterns[i%len(patterns)], 10, 0.5, WithApproximation()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitWarm is the commit path of a caching session in process, on
// the tracked benchmark's serve_zipf shape: a synthetic 10k/70k graph with 24
// labels, maxWarmPatterns mined patterns each maintained with the three
// query kinds (k = 10, λ = 0.5), and the benchmark's 60/20/20
// append/insert/delete plan aimed at the label edges of the eight hottest.
// One iteration is one commit — graph apply, bound-index advance and the warm
// advance pass — followed by a read of the three shapes of one pattern in turn
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
