package divtopk

import (
	"reflect"
	"sync"
	"testing"
)

// testGraphAndPatterns builds a moderately sized cyclic graph and a handful
// of generated patterns for the concurrency tests.
func testGraphAndPatterns(t testing.TB, nPatterns int) (*Graph, []*Pattern) {
	t.Helper()
	g := NewYouTubeLike(4_000, 40_000, 1)
	var patterns []*Pattern
	for seed := int64(1); len(patterns) < nPatterns; seed++ {
		q, err := GeneratePattern(g, 4, 7, seed%2 == 0, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, q)
	}
	return g, patterns
}

func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
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
			t.Fatalf("%s: All[%d] differs: %+v vs %+v", label, i, x, y)
		}
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("%s: |Matches| %d vs %d", label, len(a.Matches), len(b.Matches))
	}
}

// TestParallelismIdenticalResults pins the one promise left to the
// Parallelism option, which stays only for callers that still pass it: it is
// ignored, so an answer asked with it equals the default one, ordering
// included, and a caching session serves both from one entry.
func TestParallelismIdenticalResults(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 4)
	for qi, q := range patterns {
		for _, opts := range [][]Option{nil, {WithBaseline()}} {
			want, err := TopK(g, q, 10, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TopK(g, q, 10, append(opts, Parallelism(8))...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pattern %d %d options: Parallelism(8) changed the answer", qi, len(opts))
			}
		}
		want, err := TopKDiversified(g, q, 6, 0.5, WithApproximation())
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopKDiversified(g, q, 6, 0.5, WithApproximation(), Parallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d: Parallelism(8) changed the diversified answer", qi)
		}
	}

	m := NewMatcher(g, WithCache(64))
	for _, n := range []int{0, 1, 4} {
		if _, err := m.TopK(patterns[0], 10, Parallelism(n)); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("Parallelism split the cache key: %+v", s)
	}
}

// TestMatcherConcurrentQueries hammers one warmed session from many
// goroutines; run under -race this is the data-race test for the shared
// bound index and the engine scratch pool.
func TestMatcherConcurrentQueries(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 4)
	m := NewMatcher(g)

	want := make([]*Result, len(patterns))
	for i, q := range patterns {
		res, err := m.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				q := (w + rep) % len(patterns)
				res, err := m.TopK(patterns[q], 5)
				if err != nil {
					errCh <- err
					return
				}
				if len(res.All) != len(want[q].All) {
					errCh <- errMismatch
					return
				}
				if _, err := m.TopKDiversified(patterns[q], 4, 0.5); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result differs from sequential" }
