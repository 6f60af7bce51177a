package divtopk

import (
	"errors"
	"math"
	"reflect"
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
	g2, _, err := m.UpdateWithStats(&d)
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
	if _, _, err := m.UpdateWithStats(&d2); err != nil {
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
	if _, _, err := m.UpdateWithStats(&bad); err == nil {
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

// TestMatcherUpdateWithStats pins the index-maintenance surface of a commit
// on both sides of the default rebuild ratio: a delta whose frontier reaches
// a sliver of the index advances it incrementally, one that changes the
// descendants of most rows rebuilds it. Either way the stats describe the
// step taken, and the answers after it, TopKDH's included (the one kind that
// reads the index), equal a cold session's over the updated graph. The graph
// is a chain x0 → … → x39 beside a lone y.
func TestMatcherUpdateWithStats(t *testing.T) {
	const n = 40
	b := NewGraphBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("x")
		if i > 0 {
			if err := b.AddEdge(i-1, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	y := b.AddNode("y")
	pb := NewPatternBuilder()
	if err := pb.AddEdge(pb.AddNode("x"), pb.AddNode("y")); err != nil {
		t.Fatal(err)
	}
	q, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(b.Build())
	for _, step := range []struct {
		mode  string
		apply func(d *Delta)
	}{
		// An x leaf under y: y's own row is all the frontier holds.
		{"incremental", func(d *Delta) { d.InsertEdge(y, m.Graph().NumNodes()+d.AddNode("x")) }},
		// y under the chain's tail: every chain row gains descendants.
		{"rebuild", func(d *Delta) { d.InsertEdge(n-1, y) }},
	} {
		var d Delta
		step.apply(&d)
		g2, stats, err := m.UpdateWithStats(&d)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != step.mode || stats.BatchWidth != 1 || stats.TotalRows != g2.NumNodes() ||
			stats.AffectedShare < 0 || stats.AffectedShare > 1 || stats.WallMicros < 0 {
			t.Fatalf("%s step: stats %+v", step.mode, stats)
		}
		if stats.Mode == "rebuild" && (stats.AffectedRows != stats.TotalRows || stats.AffectedShare != 1) {
			t.Fatalf("rebuild stats must cover every row: %+v", stats)
		}
		cold := NewMatcher(g2)
		res, err := m.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, step.mode+" vs cold", res, want)
		div, err := m.TopKDiversified(q, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantDiv, err := cold.TopKDiversified(q, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		assertDiversifiedIdentical(t, step.mode+" vs cold", div, wantDiv)
	}
}
