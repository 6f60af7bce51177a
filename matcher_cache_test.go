package divtopk

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMatcherCacheHitsAndKeying covers the session result cache: repeats
// are hits, the key ignores Parallelism (documented to never change
// results) but distinguishes k, λ, and algorithm choice.
func TestMatcherCacheHitsAndKeying(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 2)
	m := NewMatcher(g, WithCache(64))
	q := patterns[0]

	fresh, err := m.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := m.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cached != fresh {
		t.Fatal("repeat query did not return the cached Result")
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats after repeat = %+v, want 1 miss 1 hit", s)
	}

	// Parallelism is excluded from the key: different worker counts share
	// the entry (every setting returns identical results).
	if _, err := m.TopK(q, 10, Parallelism(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(q, 10, Parallelism(4)); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 1 {
		t.Fatalf("parallelism changed the cache key: %+v", s)
	}

	// k, λ, the algorithm family and the second pattern all get their own
	// entries.
	if _, err := m.TopK(q, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(q, 5, WithBaseline()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopKDiversified(q, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopKDiversified(q, 5, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopKDiversified(q, 5, 0.7, WithApproximation()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(patterns[1], 5); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 7 {
		t.Fatalf("misses = %d, want 7 distinct evaluations", s.Misses)
	}
}

// TestCacheKeyCrossFamilyFlags pins the key's flag scoping: each entry
// point keys only on its own algorithm flag. An irrelevant session default
// (approx for TopK, baseline for TopKDiversified) must neither collapse the
// family's engine knobs into one entry (wrong cached results) nor split
// entries that evaluate identically.
func TestCacheKeyCrossFamilyFlags(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	q := patterns[0]

	// approx is diversified-only: with it as a session default, TopK calls
	// with different engine knobs still need distinct entries...
	m := NewMatcher(g, WithCache(64), WithApproximation())
	if _, err := m.TopK(q, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(q, 10, WithBatches(2)); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 2 {
		t.Fatalf("approx default collapsed TopK knob variants: %+v", s)
	}
	// ...while the approx diversified calls ignore the knobs and share one.
	if _, err := m.TopKDiversified(q, 6, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopKDiversified(q, 6, 0.5, WithBatches(2)); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 3 {
		t.Fatalf("approx diversified variants should share one entry: %+v", s)
	}

	// baseline is top-k-only: with it as a session default, TopKDH (the
	// non-approx diversified path, which does consult the knobs) still
	// needs distinct entries per knob setting.
	m2 := NewMatcher(g, WithCache(64), WithBaseline())
	if _, err := m2.TopKDiversified(q, 6, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TopKDiversified(q, 6, 0.5, WithBatches(2)); err != nil {
		t.Fatal(err)
	}
	if s := m2.CacheStats(); s.Misses != 2 {
		t.Fatalf("baseline default collapsed TopKDH knob variants: %+v", s)
	}
}

// TestMatcherCacheIdenticalToUncached asserts a cached session returns the
// same answers as an uncached one — the determinism claim behind "a cached
// result is byte-identical to a fresh evaluation".
func TestMatcherCacheIdenticalToUncached(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 3)
	plain := NewMatcher(g)
	caching := NewMatcher(g, WithCache(16))
	for _, q := range patterns {
		a, err := plain.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // round 1 is served from cache
			b, err := caching.TopK(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, "cached-vs-fresh", a, b)
		}
	}
}

// TestMatcherCacheSingleflight asserts N concurrent identical queries on a
// caching session cost exactly one engine evaluation.
func TestMatcherCacheSingleflight(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	m := NewMatcher(g, WithCache(16))
	q := patterns[0]
	const n = 16
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := m.TopK(q, 10)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	s := m.CacheStats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 evaluation for %d concurrent identical queries", s.Misses, n)
	}
	if s.Hits+s.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", s.Hits+s.Coalesced, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different Result pointer", i)
		}
	}
}

// TestBatchTopKSharesCache asserts the batch entry points thread through
// the session cache: a batch of duplicate patterns costs one evaluation.
func TestBatchTopKSharesCache(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	m := NewMatcher(g, WithCache(16))
	batch := make([]*Pattern, 12)
	for i := range batch {
		batch[i] = patterns[0]
	}
	results, err := m.BatchTopK(batch, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 1 {
		t.Fatalf("batch of identical queries cost %d evaluations, want 1", s.Misses)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("batch result %d not shared", i)
		}
	}
}

// TestContainmentSeededAdmission pins the containment-aware admission path
// deterministically: after a general (label-only) pattern is cached, a
// stricter pattern whose every node condition is subsumed by it evaluates
// with candidates seeded from the donor's maintained lists — reported as
// "seeded" — and the answer is byte-identical to a cacheless session. A
// pattern over labels the donor does not carry stays a plain miss.
func TestContainmentSeededAdmission(t *testing.T) {
	b := NewGraphBuilder()
	const n = 60
	for i := 0; i < n; i++ {
		label := "person"
		if i%3 == 0 {
			label = "org"
		}
		b.AddNode(label, Int("age", int64(i%50)))
	}
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i*7+1)%n); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(i, (i*3+2)%n); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()

	buildQ := func(preds ...Pred) *Pattern {
		pb := NewPatternBuilder()
		u := pb.AddNode("person", preds...)
		v := pb.AddNode("org")
		if err := pb.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		q, err := pb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	donor := buildQ()               // label-only: subsumes any person-node condition
	strict := buildQ(Gt("age", 20)) // stricter: candidates ⊆ donor's

	m := NewMatcher(g, WithCache(32))
	if _, info, err := m.TopKInfo(donor, 5); err != nil || info.Cache != "miss" {
		t.Fatalf("donor query = %+v, %v, want a miss", info, err)
	}
	res, info, err := m.TopKInfo(strict, 5)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cache != "seeded" {
		t.Fatalf("strict query provenance = %q, want seeded", info.Cache)
	}
	if s := m.CacheStats(); s.Seeded != 1 {
		t.Fatalf("stats after seeded admission: %+v", s)
	}
	cold, err := NewMatcher(g).TopK(strict, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "seeded vs cold", res, cold)

	// A pattern whose labels no cached pattern carries finds no donor node
	// at all -> plain miss. (Note a partial label overlap WOULD seed: the
	// donor's org node covers org nodes of any later pattern.)
	pb := NewPatternBuilder()
	u := pb.AddNode("widget")
	v := pb.AddNode("widget")
	if err := pb.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	unrelated, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := m.TopKInfo(unrelated, 5); err != nil || info.Cache != "miss" {
		t.Fatalf("unrelated query = %+v, %v, want a miss", info, err)
	}
}

// TestQueryKeySoundness is key soundness as a property over the one query
// type every route shares: for random option sets, equal keys imply deeply
// equal answers from evaluate (so serving one query's cached answer for the
// other is indistinguishable from evaluating it), and queries of different
// kinds never share a key. The option space is every result-affecting or
// deliberately key-excluded knob: WithBatches including the non-positive
// "default" spellings, WithRandomSelection seeds, the three bound modes,
// baseline/approximation as call option, and Parallelism.
func TestQueryKeySoundness(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	p, text := patterns[0], patternText(patterns[0])
	rng := rand.New(rand.NewSource(14))
	randomQuery := func() query {
		var opts []Option
		if rng.Intn(2) == 0 {
			opts = append(opts, WithBatches([]int{-3, 0, 1, 2, 16, 32}[rng.Intn(6)]))
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithRandomSelection(int64(1+rng.Intn(2))))
		}
		switch rng.Intn(3) {
		case 1:
			opts = append(opts, WithLooseBounds())
		case 2:
			opts = append(opts, WithTightBounds())
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithBaseline())
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithApproximation())
		}
		if rng.Intn(2) == 0 {
			opts = append(opts, Parallelism(1+rng.Intn(8)))
		}
		// A random prefix plays the session defaults, the rest the call's.
		cut := rng.Intn(len(opts) + 1)
		return newQuery(rng.Intn(2) == 0, 3+2*rng.Intn(2), []float64{0, 0.3, 0.7}[rng.Intn(3)], opts[:cut], opts[cut:])
	}

	type class struct {
		q   query
		val any
	}
	classes := map[string]class{}
	kinds := map[queryKind]bool{}
	shared := 0
	for i := 0; i < 400; i++ {
		q := randomQuery()
		if !q.kind.diversified() {
			q.lambda = 0 // what the top-k entry points pass
		}
		kinds[q.kind] = true
		a, err := evaluate(g, p, q, nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		key := shapeID(q, text)
		first, ok := classes[key]
		if !ok {
			classes[key] = class{q, a.val}
			continue
		}
		shared++
		if first.q.kind != q.kind {
			t.Fatalf("kinds %d and %d share a key:\n%+v\n%+v", first.q.kind, q.kind, first.q, q)
		}
		if !reflect.DeepEqual(first.val, a.val) {
			t.Fatalf("equal keys, different answers:\n%+v\n%+v", first.q, q)
		}
	}
	// The property must not hold vacuously: all four algorithms drawn, many
	// key classes, and most draws landing in a class someone else opened.
	if len(kinds) != 4 || len(classes) < 40 || shared < 100 {
		t.Fatalf("weak sample: %d kinds, %d key classes, %d draws sharing a key", len(kinds), len(classes), shared)
	}
	var noop Delta
	g1, err := ApplyDelta(g, &noop)
	if err != nil {
		t.Fatal(err)
	}
	if q := newQuery(false, 3, 0, nil, nil); queryKey(q, g, text) == queryKey(q, g1, text) {
		t.Fatal("the snapshot version does not participate in the key")
	}
}
