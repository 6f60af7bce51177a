package divtopk

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// assertDiversifiedIdentical requires two diversified answers to be deeply
// equal — the byte-identity bar the warm cache's advanced entries are held
// to.
func assertDiversifiedIdentical(t *testing.T, label string, a, b *DiversifiedResult) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: diversified results differ:\n%+v\n%+v", label, a, b)
	}
}

// TestMatcherUpdateVersionedCacheKeys is the session-layer half of the
// delta-equivalence acceptance criterion: a result cached before an update
// is never served after it (the snapshot version participates in every
// cache key), and post-update answers are byte-identical to a fresh session
// over the updated graph. Since the warm result cache, the stale entry is
// not merely unreachable — the commit advances the hot pattern's entry to
// the new version, so the first post-update query is an "advanced" hit
// whose payload still matches a cold session byte for byte.
func TestMatcherUpdateVersionedCacheKeys(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 2)
	m := NewMatcher(g, WithCache(64))
	q := patterns[0]

	before, info, err := m.TopKInfo(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 0 || m.Graph().Version() != 0 {
		t.Fatalf("fresh session version = %d/%d, want 0", info.Version, m.Graph().Version())
	}
	if _, err := m.TopK(q, 10); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("pre-update stats %+v, want 1 miss 1 hit", s)
	}

	// Update: append a node wired into the neighborhood of node 0.
	var d Delta
	idx := d.AddNode(g.Label(0))
	nn := g.NumNodes() + idx
	d.InsertEdge(0, nn)
	d.InsertEdge(nn, 1)
	g2, err := m.Update(&d)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != 1 || m.Graph().Version() != 1 {
		t.Fatalf("post-update version = %d/%d, want 1", g2.Version(), m.Graph().Version())
	}

	// The commit advanced the hot entry: the same query hits it under the
	// new version (reported "advanced" exactly once), never the stale one,
	// and must match a cold session over the updated graph byte for byte.
	if s := m.CacheStats(); s.Advanced != 1 {
		t.Fatalf("commit did not install an advanced entry: %+v", s)
	}
	after, info, err := m.TopKInfo(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("post-update answer version = %d, want 1", info.Version)
	}
	if info.Cache != "advanced" {
		t.Fatalf("post-update provenance = %q, want advanced", info.Cache)
	}
	if s := m.CacheStats(); s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("post-update query not served from the advanced entry: %+v", s)
	}
	if _, info2, err := m.TopKInfo(q, 10); err != nil || info2.Cache != "hit" {
		t.Fatalf("advanced tag did not decay to a plain hit: %+v, %v", info2, err)
	}
	cold, err := NewMatcher(g2).TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "post-update", after, cold)

	// Old snapshot still answers like it always did (immutability), and the
	// old cached entry is still served to... nobody: only version-0 keys
	// reach it, and the session is at version 1 forever.
	oldAgain, err := TopK(g, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "old snapshot", before, oldAgain)

	// Diversified results are keyed by version — and advanced across commits
	// — the same way.
	if _, _, err := m.TopKDiversifiedInfo(q, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	adv := m.CacheStats().Advanced
	var d2 Delta
	d2.DeleteEdge(0, nn)
	if _, err := m.Update(&d2); err != nil {
		t.Fatal(err)
	}
	dres, dinfo, err := m.TopKDiversifiedInfo(q, 5, 0.5)
	if err != nil || dinfo.Version != 2 {
		t.Fatalf("diversified post-update version = %d err = %v, want 2 nil", dinfo.Version, err)
	}
	if dinfo.Cache != "advanced" || m.CacheStats().Advanced <= adv {
		t.Fatalf("diversified entry not advanced across the commit: %+v (%+v)", dinfo, m.CacheStats())
	}
	dcold, err := NewMatcher(m.Graph()).TopKDiversified(q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	assertDiversifiedIdentical(t, "diversified post-update", dres, dcold)
}

// TestMatcherUpdateFailureLeavesSessionIntact pins the error path: a bad
// delta changes nothing.
func TestMatcherUpdateFailureLeavesSessionIntact(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	m := NewMatcher(g, WithCache(16))
	if _, err := m.TopK(patterns[0], 5); err != nil {
		t.Fatal(err)
	}
	var bad Delta
	bad.InsertEdge(0, 10_000_000)
	if _, err := m.Update(&bad); err == nil {
		t.Fatal("bad delta accepted")
	}
	if m.Graph().Version() != 0 || m.Graph() != g {
		t.Fatal("failed update swapped the session graph")
	}
	if _, err := m.TopK(patterns[0], 5); err != nil {
		t.Fatal(err)
	}
	if s := m.CacheStats(); s.Hits != 1 {
		t.Fatalf("cache not intact after failed update: %+v", s)
	}
}

// TestMatcherConcurrentUpdatesAndQueries is the -race exercise of the swap:
// queries, batch queries and updates (which intern new labels into the dict
// the live graph reads) run concurrently; every answer must come from a
// consistent snapshot (matching one of the sequential per-version answers).
func TestMatcherConcurrentUpdatesAndQueries(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 2)
	m := NewMatcher(g, WithCache(128))
	q := patterns[0]

	const updates = 6
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := m.TopKInfo(q, 10); err != nil {
					errc <- err
					return
				}
				if _, err := m.TopKDiversified(q, 5, 0.5); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			var d Delta
			// A fresh label every time: Intern runs against the dict the
			// query goroutines are reading labels from.
			idx := d.AddNode(fmt.Sprintf("dyn-%d", i))
			nn := m.Graph().NumNodes() + idx
			d.InsertEdge(0, nn)
			if _, err := m.Update(&d); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if m.Graph().Version() != updates {
		t.Fatalf("version = %d, want %d", m.Graph().Version(), updates)
	}
}

// TestLambdaValidationLibraryLayer is the library half of the λ bugfix:
// every diversified entry point rejects NaN/±Inf/out-of-range λ with the
// structured ErrLambdaRange instead of silently producing NaN F.
func TestLambdaValidationLibraryLayer(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	q := patterns[0]
	m := NewMatcher(g, WithCache(8))

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 1.25} {
		if _, err := TopKDiversified(g, q, 5, bad); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("TopKDiversified(λ=%v) err = %v, want ErrLambdaRange", bad, err)
		}
		if _, err := TopKDiversified(g, q, 5, bad, WithApproximation()); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("TopKDiv(λ=%v) err = %v, want ErrLambdaRange", bad, err)
		}
		if _, err := m.TopKDiversified(q, 5, bad); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("Matcher.TopKDiversified(λ=%v) err = %v, want ErrLambdaRange", bad, err)
		}
		if _, err := m.BatchTopKDiversified(patterns, 5, bad); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("BatchTopKDiversified(λ=%v) err = %v, want ErrLambdaRange", bad, err)
		}
	}
	// The cache holds no entry for any rejected λ.
	if s := m.CacheStats(); s.Entries != 0 || s.Misses != 0 {
		t.Fatalf("rejected λ touched the cache: %+v", s)
	}
	// Boundary values work.
	for _, ok := range []float64{0, 1} {
		if _, err := TopKDiversified(g, q, 5, ok); err != nil {
			t.Errorf("λ=%v rejected: %v", ok, err)
		}
	}
}

// TestMatcherUpdateWithStats pins the index-maintenance surface of Update:
// the stats describe a real maintenance step, query results after an
// advanced index are byte-identical to a cold session over the updated
// graph, and both forced maintenance paths (never fall back / always
// rebuild) agree with the adaptive one.
func TestMatcherUpdateWithStats(t *testing.T) {
	g, patterns := testGraphAndPatterns(t, 1)
	q := patterns[0]
	sessions := map[string]*Matcher{
		"adaptive":    NewMatcher(g),
		"incremental": NewMatcher(g),
		"rebuild":     NewMatcher(g),
	}
	sessions["incremental"].indexRatio = 1
	sessions["rebuild"].indexRatio = 1e-12

	for step := 0; step < 3; step++ {
		var d Delta
		idx := d.AddNode(fmt.Sprintf("dynstat-%d", step%2))
		// All sessions walk the same chain, so any one's node count works.
		nn := sessions["adaptive"].Graph().NumNodes() + idx
		// The appended node points INTO the base graph: warmed labels occur
		// below its component, so the frontier recomputes real work and the
		// tiny-ratio session's fallback has something to trip on. (A delta
		// affecting only labels the index never warmed recomputes zero cells
		// and stays incremental under any ratio.)
		d.InsertEdge(nn, 1)
		if step == 2 {
			d.DeleteEdge(nn-1, 1) // edge added by the previous step
		}

		var reference *Result
		for name, m := range sessions {
			g2, stats, err := m.UpdateWithStats(&d)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if stats.Mode != "incremental" && stats.Mode != "rebuild" {
				t.Fatalf("%s step %d: mode %q", name, step, stats.Mode)
			}
			if name == "rebuild" && stats.Mode != "rebuild" {
				t.Fatalf("forced-rebuild session advanced incrementally: %+v", stats)
			}
			if stats.Mode == "rebuild" && (stats.AffectedRows != stats.TotalRows || stats.AffectedShare != 1) {
				t.Fatalf("rebuild stats must cover every row: %+v", stats)
			}
			if name == "incremental" && stats.Mode != "incremental" {
				t.Fatalf("forced-incremental session fell back: %+v", stats)
			}
			if stats.TotalRows != g2.NumNodes() {
				t.Fatalf("%s step %d: TotalRows %d, want %d", name, step, stats.TotalRows, g2.NumNodes())
			}
			if stats.BatchWidth != 1 {
				t.Fatalf("%s step %d: plain update has batch width %d", name, step, stats.BatchWidth)
			}
			if stats.AffectedShare < 0 || stats.AffectedShare > 1 {
				t.Fatalf("%s step %d: AffectedShare %v", name, step, stats.AffectedShare)
			}
			if stats.WallMicros < 0 {
				t.Fatalf("%s step %d: negative wall time", name, step)
			}
			res, err := m.TopK(q, 10)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if reference == nil {
				cold, err := NewMatcher(g2).TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, fmt.Sprintf("%s step %d vs cold", name, step), res, cold)
				reference = res
			} else {
				assertResultsIdentical(t, fmt.Sprintf("%s step %d vs adaptive", name, step), res, reference)
			}
		}
	}
}
