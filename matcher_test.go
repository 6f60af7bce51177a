package divtopk

import (
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

// TestParallelismIdenticalResults asserts the contract of the Parallelism
// option: every worker count returns the same answer, ordering included —
// Parallelism(1) is the sequential engine, Parallelism(8) the parallel one.
func TestParallelismIdenticalResults(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 4)
	for qi, q := range patterns {
		seq, err := TopK(g, q, 10, Parallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := TopK(g, q, 10, Parallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "topk", seq, par)

		seqB, err := TopK(g, q, 10, WithBaseline(), Parallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		parB, err := TopK(g, q, 10, WithBaseline(), Parallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "baseline", seqB, parB)

		seqD, err := TopKDiversified(g, q, 6, 0.5, WithApproximation(), Parallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		parD, err := TopKDiversified(g, q, 6, 0.5, WithApproximation(), Parallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		if seqD.F != parD.F || len(seqD.Matches) != len(parD.Matches) {
			t.Fatalf("pattern %d: diversified F/|S| differ: %v/%d vs %v/%d",
				qi, seqD.F, len(seqD.Matches), parD.F, len(parD.Matches))
		}
		for i := range seqD.Matches {
			if seqD.Matches[i].Node != parD.Matches[i].Node {
				t.Fatalf("pattern %d: diversified selection differs at %d: %d vs %d",
					qi, i, seqD.Matches[i].Node, parD.Matches[i].Node)
			}
		}
	}
}

// TestMatcherConcurrentQueries hammers one warmed session from many
// goroutines; run under -race this is the data-race test for the shared
// bound index and the parallel engine sections.
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
