package divtopk

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMatcherCacheHitsAndKeying covers the session result cache: repeats
// are hits, the key distinguishes k, λ, and algorithm choice, and TopK with
// and without the ignored WithBaseline is one query with one entry.
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

	// TopK runs one algorithm, so WithBaseline shares its entry...
	five, err := m.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	baseFive, err := m.TopK(q, 5, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 2 || s.Hits != 2 || !reflect.DeepEqual(baseFive, five) {
		t.Fatalf("stats after topk and baseline topk = %+v, want the second a hit on the first's entry", s)
	}
	// ...while k, λ, the diversified algorithm and the second pattern all get
	// their own entries.
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
	if s := m.CacheStats(); s.Misses != 6 {
		t.Fatalf("misses = %d, want 6 distinct evaluations", s.Misses)
	}
}

// TestCacheKeyCrossFamilyFlags pins the key's flag scoping: only
// TopKDiversified has an algorithm flag, and nothing else keys. A session
// default of approx must not split TopK's one entry, and one of the ignored
// baseline must neither collapse TopKDiversified's two algorithms into one
// entry (wrong cached results) nor split entries that evaluate identically.
func TestCacheKeyCrossFamilyFlags(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	q := patterns[0]

	// approx is diversified-only: with it as a session default, TopK with
	// and without baseline is still one entry...
	m := NewMatcher(g, WithCache(64), WithApproximation())
	plain, err := m.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.TopK(q, 10, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 1 || !reflect.DeepEqual(base, plain) {
		t.Fatalf("approx default or baseline split TopK's entry: %+v", s)
	}
	// ...while the diversified calls ignore baseline and share one.
	if _, err := m.TopKDiversified(q, 6, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopKDiversified(q, 6, 0.5, WithBaseline()); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 2 {
		t.Fatalf("baseline split the approx diversified entry: %+v", s)
	}

	// baseline is top-k-only: with it as a session default, TopKDH and
	// TopKDiv still need distinct entries.
	m2 := NewMatcher(g, WithCache(64), WithBaseline())
	if _, err := m2.TopKDiversified(q, 6, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TopKDiversified(q, 6, 0.5, WithApproximation()); err != nil {
		t.Fatal(err)
	}
	if s := m2.CacheStats(); s.Misses != 2 {
		t.Fatalf("baseline default collapsed TopKDH and TopKDiv: %+v", s)
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

// TestContainedPatternAdmission pins admission of a pattern contained in a
// maintained one: after a general (label-only) pattern is cached, a stricter
// pattern whose candidates are a subset of it is admitted like any other —
// a plain miss, counted in Misses — and its answer is byte-identical to a
// cacheless session's.
func TestContainedPatternAdmission(t *testing.T) {
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
	general := buildQ()                // label-only
	contained := buildQ(Gt("age", 20)) // stricter: candidates ⊆ general's

	m := NewMatcher(g, WithCache(32))
	if _, info, err := m.TopKInfo(general, 5); err != nil || info.Cache != "miss" {
		t.Fatalf("general query = %+v, %v, want a miss", info, err)
	}
	res, info, err := m.TopKInfo(contained, 5)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cache != "miss" {
		t.Fatalf("contained query provenance = %q, want miss", info.Cache)
	}
	if s := m.CacheStats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats after two admissions: %+v, want 2 misses", s)
	}
	cold, err := NewMatcher(g).TopK(contained, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "contained vs cold", res, cold)
}

// TestQueryKeySoundness is key soundness as a property over the one query
// type every route shares: for random option sets, equal keys imply deeply
// equal answers from evaluate (so serving one query's cached answer for the
// other is indistinguishable from evaluating it), and queries of different
// kinds never share a key. The option space is every algorithm option:
// approximation, and the ignored baseline that must not split a key, each
// drawn as a session default or a call option.
func TestQueryKeySoundness(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	p, text := patterns[0], patternText(patterns[0])
	rng := rand.New(rand.NewSource(14))
	randomQuery := func() query {
		var opts []Option
		if rng.Intn(3) == 0 {
			opts = append(opts, WithBaseline())
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithApproximation())
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
		a, err := evaluate(g, p, q, nil)
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
	// The property must not hold vacuously: all three kinds drawn, every
	// key class — 1 top-k kind × 2 ks, 2 diversified kinds × 2 ks × 3 λs —
	// opened, and most draws landing in a class someone else opened.
	if len(kinds) != 3 || len(classes) != 14 || shared < 300 {
		t.Fatalf("weak sample: %d kinds, %d key classes, %d draws sharing a key", len(kinds), len(classes), shared)
	}
	// On a session the shared key is one entry: topk then baseline topk is
	// one miss and one hit, and the hit is the evaluated answer.
	m := NewMatcher(g, WithCache(8))
	if _, err := m.TopK(p, 3); err != nil {
		t.Fatal(err)
	}
	base, err := m.TopK(p, 3, WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 1 || !reflect.DeepEqual(base, classes[shapeID(newQuery(false, 3, 0, nil, nil), text)].val) {
		t.Fatalf("topk and baseline topk: %+v, want one miss, one hit and the evaluated answer", s)
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
