package divtopk

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestWarmCacheAdvanceEquivalenceFuzz is the correctness bar of the warm
// result cache: whatever the advance pass does on commit — advance a cached
// entry incrementally, carry it verbatim when the delta missed its product,
// evict it past the work-share ratio, or seed a fresh evaluation from a
// containment donor — every answer a cached session gives must be deeply
// equal to a never-cached session walking the same delta chain. Randomized
// chains cross the interesting boundaries (appends into the pattern's
// neighborhood, deletes of matched edges, no-op deltas), and the matrix
// covers both query kernels (TopK and TopKDiversified), both algorithm
// families of each (early-termination engine and find-all/approximation),
// worker counts 1 and 8, and all three advance policies.
func TestWarmCacheAdvanceEquivalenceFuzz(t *testing.T) {
	modes := []struct {
		name  string
		ratio float64 // Matcher.advanceRatio: 0 = default, >= 1 never evicts
	}{
		{"adaptive", 0},
		{"force-advance", 1},
		{"force-evict", 1e-9},
	}
	type querySpec struct {
		name string
		run  func(m *Matcher, q *Pattern, par int) (any, error)
	}
	queries := []querySpec{
		{"topk/engine", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par))
		}},
		{"topk/baseline", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par), WithBaseline())
		}},
		{"div/heuristic", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, Parallelism(par))
		}},
		{"div/approx", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, Parallelism(par), WithApproximation())
		}},
	}

	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := batchFuzzGraph(t, rng)
			// Two mined patterns: label-only conditions over a 4-label space,
			// so the second frequently finds the first's cached state as a
			// containment donor and exercises the seeded admission path.
			q1, err := GeneratePattern(base, 3, 5, seed%2 == 0, true, seed)
			if err != nil {
				t.Fatal(err)
			}
			q2, err := GeneratePattern(base, 3, 4, seed%2 != 0, true, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			patterns := []*Pattern{q1, q2}

			type session struct {
				name      string
				warm, ref *Matcher
				par       int
			}
			var sessions []session
			for _, mode := range modes {
				for _, par := range []int{1, 8} {
					warm := NewMatcher(base, WithCache(64), Parallelism(par))
					warm.advanceRatio = mode.ratio
					sessions = append(sessions, session{
						name: fmt.Sprintf("%s/p%d", mode.name, par),
						warm: warm,
						ref:  NewMatcher(base, Parallelism(par)),
						par:  par,
					})
				}
			}

			check := func(step int) {
				for _, s := range sessions {
					for _, q := range patterns {
						for _, qs := range queries {
							got, err := qs.run(s.warm, q, s.par)
							if err != nil {
								t.Fatalf("step %d %s %s (warm): %v", step, s.name, qs.name, err)
							}
							want, err := qs.run(s.ref, q, s.par)
							if err != nil {
								t.Fatalf("step %d %s %s (ref): %v", step, s.name, qs.name, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d %s %s: cached session diverged from never-cached reference:\ngot  %+v\nwant %+v",
									step, s.name, qs.name, got, want)
							}
						}
					}
				}
			}

			// Query once before the first delta so the warm registry holds
			// states and descriptors for every (pattern, family) the chain
			// will advance.
			check(-1)
			for step := 0; step < 10; step++ {
				d := mineBatchDelta(rng, sessions[0].warm.Graph(), int(seed)*100+step)
				for _, s := range sessions {
					if _, err := s.warm.Update(d); err != nil {
						t.Fatalf("step %d %s (warm): %v", step, s.name, err)
					}
					if _, err := s.ref.Update(d); err != nil {
						t.Fatalf("step %d %s (ref): %v", step, s.name, err)
					}
				}
				check(step)
			}

			// Sanity on the policy split: the forced-advance sessions must
			// have advanced entries and never tripped the ratio fallback,
			// while the forced-evict ones must have evicted on every commit
			// that touched a maintained product (a delta with zero affected
			// share still advances at zero cost — even a tiny ratio only
			// trips when there is work to skip).
			for _, s := range sessions {
				cs := s.warm.CacheStats()
				switch {
				case strings.HasPrefix(s.name, "force-advance"):
					if cs.Advanced == 0 {
						t.Errorf("%s: no entries advanced across 10 commits: %+v", s.name, cs)
					}
					if cs.AdvanceEvicted != 0 {
						t.Errorf("%s: forced-advance session hit the ratio fallback: %+v", s.name, cs)
					}
				case strings.HasPrefix(s.name, "force-evict"):
					if cs.AdvanceEvicted == 0 {
						t.Errorf("%s: forced-evict session never evicted: %+v", s.name, cs)
					}
				}
			}
		})
	}
}

// TestWarmRegistryConcurrentQueriesAndCommits races queries that each
// register a fresh shape (random k) on one hot pattern against a chain of
// commits advancing that pattern's state. The registry's mutable parts —
// which state an entry holds, its recency tick, its shapes — are touched
// under its lock only, so this must be clean under -race (it was not while
// queries wrote ticks and shapes into a state the advance pass was reading);
// and every answer, during the race and after the last commit, must be
// deeply equal to what a never-cached session answers at the version the
// warm session reports.
func TestWarmRegistryConcurrentQueriesAndCommits(t *testing.T) {
	g := NewYouTubeLike(1_500, 12_000, 3)
	q, err := GeneratePattern(g, 4, 6, true, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(g, WithCache(256))
	ref := NewMatcher(g)
	var (
		snapMu sync.Mutex
		snaps  = []*Graph{g} // never-cached session's snapshot per version
	)
	check := func(k int) error {
		got, info, err := m.TopKInfo(q, k)
		if err != nil {
			return err
		}
		snapMu.Lock()
		snap := snaps[info.Version]
		snapMu.Unlock()
		want, err := TopK(snap, q, k)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("k=%d at version %d (cache %q): warm session diverged from never-cached one", k, info.Version, info.Cache)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(1 + rng.Intn(40)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 40; step++ {
		d := mineBatchDelta(rng, m.Graph(), step)
		snap, err := ref.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		snapMu.Lock()
		snaps = append(snaps, snap)
		snapMu.Unlock()
		if _, err := m.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for k := 1; k <= 40; k++ {
		if err := check(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmRegistryCaps drives a caching session past both registry caps —
// more distinct patterns than maxWarmPatterns, more distinct k on one
// pattern than maxWarmShapes — and checks that neither cap is ever exceeded,
// that the least recently admitted ones are the ones displaced (the others
// answer the first post-commit ask as "advanced"; in particular a shape
// arriving after the cap was reached is maintained), and that every answer
// before and after the commit is deeply equal to a never-cached session's.
func TestWarmRegistryCaps(t *testing.T) {
	g := NewYouTubeLike(1_500, 12_000, 3)
	d := mineBatchDelta(rand.New(rand.NewSource(7)), g, 0)

	// ask runs one query on both sessions, checks the answers agree and the
	// caps hold, and returns the warm session's cache provenance.
	ask := func(t *testing.T, warm, ref *Matcher, q *Pattern, k int) string {
		t.Helper()
		got, info, err := warm.TopKInfo(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d version %d (cache %q): warm session diverged from never-cached one", k, info.Version, info.Cache)
		}
		warm.warm.mu.Lock()
		defer warm.warm.mu.Unlock()
		if n := len(warm.warm.entries); n > maxWarmPatterns {
			t.Fatalf("registry holds %d states, cap %d", n, maxWarmPatterns)
		}
		for text, e := range warm.warm.entries {
			if n := len(e.shapes); n > maxWarmShapes {
				t.Fatalf("pattern %q carries %d shapes, cap %d", text, n, maxWarmShapes)
			}
		}
		return info.Cache
	}
	sessions := func() (warm, ref *Matcher) {
		warm = NewMatcher(g, WithCache(1024))
		warm.advanceRatio = 1 // never evict by work share: only the caps displace
		return warm, NewMatcher(g)
	}
	commit := func(t *testing.T, ms ...*Matcher) {
		t.Helper()
		for _, m := range ms {
			if _, err := m.Update(d); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("patterns", func(t *testing.T) {
		const n = maxWarmPatterns + 4
		var patterns []*Pattern
		seen := map[string]bool{}
		for seed := int64(1); len(patterns) < n; seed++ {
			q, err := GeneratePattern(g, 3, 3, false, false, seed)
			if err != nil || seen[patternText(q)] {
				continue
			}
			seen[patternText(q)] = true
			patterns = append(patterns, q)
		}
		warm, ref := sessions()
		for _, q := range patterns {
			if c := ask(t, warm, ref, q, 5); c != "miss" && c != "seeded" {
				t.Fatalf("first ask = %q, want an evaluation", c)
			}
		}
		commit(t, warm, ref)
		// The most recently admitted maxWarmPatterns were maintained; asking
		// the displaced ones first would displace those in turn.
		for i, q := range patterns[n-maxWarmPatterns:] {
			if c := ask(t, warm, ref, q, 5); c != "advanced" {
				t.Fatalf("recent pattern %d: first post-commit ask = %q, want advanced", i, c)
			}
		}
		for i, q := range patterns[:n-maxWarmPatterns] {
			if c := ask(t, warm, ref, q, 5); c != "miss" && c != "seeded" {
				t.Fatalf("displaced pattern %d: first post-commit ask = %q, want an evaluation", i, c)
			}
		}
	})

	t.Run("shapes", func(t *testing.T) {
		const n = maxWarmShapes + 2
		q, err := GeneratePattern(g, 4, 6, true, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		warm, ref := sessions()
		for k := 1; k <= n; k++ {
			if c := ask(t, warm, ref, q, k); c != "miss" {
				t.Fatalf("k=%d: first ask = %q, want miss", k, c)
			}
		}
		commit(t, warm, ref)
		for k := n - maxWarmShapes + 1; k <= n; k++ {
			if c := ask(t, warm, ref, q, k); c != "advanced" {
				t.Fatalf("recent k=%d: first post-commit ask = %q, want advanced", k, c)
			}
		}
		for k := 1; k <= n-maxWarmShapes; k++ {
			if c := ask(t, warm, ref, q, k); c != "miss" {
				t.Fatalf("displaced k=%d: first post-commit ask = %q, want miss", k, c)
			}
		}
	})
}
