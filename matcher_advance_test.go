package divtopk

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWarmCacheAdvanceEquivalenceFuzz is the correctness bar of the warm
// result cache: whatever the advance pass does on commit — advance a cached
// entry incrementally, carry it verbatim when the delta missed its product,
// or evict it past the work-share ratio — every answer a cached session gives
// must be deeply equal to a never-cached session walking the same delta chain. Randomized
// chains cross the interesting boundaries (appends into the pattern's
// neighborhood, deletes of matched edges, no-op deltas), and the matrix
// covers both entry points (TopK, with and without the ignored WithBaseline,
// and TopKDiversified), both diversified families (early-termination
// heuristic and find-all approximation), and all three advance policies.
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
		run  func(m *Matcher, q *Pattern) (any, error)
	}
	queries := []querySpec{
		{"topk", func(m *Matcher, q *Pattern) (any, error) {
			return m.TopK(q, 8)
		}},
		{"topk/baseline", func(m *Matcher, q *Pattern) (any, error) {
			return m.TopK(q, 8, WithBaseline())
		}},
		{"div/heuristic", func(m *Matcher, q *Pattern) (any, error) {
			return m.TopKDiversified(q, 5, 0.5)
		}},
		{"div/approx", func(m *Matcher, q *Pattern) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, WithApproximation())
		}},
	}

	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := batchFuzzGraph(t, rng)
			// Two mined patterns: label-only conditions over a 4-label space,
			// so the two frequently share labels and candidate lists.
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
			}
			var sessions []session
			for _, mode := range modes {
				warm := NewMatcher(base, WithCache(64))
				warm.cache.advanceRatio = mode.ratio
				sessions = append(sessions, session{name: mode.name, warm: warm, ref: NewMatcher(base)})
			}

			check := func(step int) {
				for _, s := range sessions {
					for _, q := range patterns {
						for _, qs := range queries {
							got, err := qs.run(s.warm, q)
							if err != nil {
								t.Fatalf("step %d %s %s (warm): %v", step, s.name, qs.name, err)
							}
							want, err := qs.run(s.ref, q)
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
					if _, _, err := s.warm.UpdateWithStats(d); err != nil {
						t.Fatalf("step %d %s (warm): %v", step, s.name, err)
					}
					if _, _, err := s.ref.UpdateWithStats(d); err != nil {
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
				switch s.name {
				case "force-advance":
					if cs.Advanced == 0 {
						t.Errorf("%s: no entries advanced across 10 commits: %+v", s.name, cs)
					}
					if cs.AdvanceEvicted != 0 {
						t.Errorf("%s: forced-advance session hit the ratio fallback: %+v", s.name, cs)
					}
				case "force-evict":
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
		snap, _, err := ref.UpdateWithStats(d)
		if err != nil {
			t.Fatal(err)
		}
		snapMu.Lock()
		snaps = append(snaps, snap)
		snapMu.Unlock()
		if _, _, err := m.UpdateWithStats(d); err != nil {
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

// TestWarmRegistryTouchDuringInstall pins the registry's rule: once a slice
// is published into a warmEntry, nothing outside warm.mu reads it. A commit's
// install step publishes the advanced shapes and re-keys them into the LRU
// after unlocking; touch writes the published shapes under the lock. With 16
// patterns × 8 shapes maintained, a toucher sweeps every shape after each
// commit, so under -race this fails unless the install published a copy.
func TestWarmRegistryTouchDuringInstall(t *testing.T) {
	g := NewYouTubeLike(1_500, 12_000, 3)
	m := NewMatcher(g, WithCache(4096))
	m.cache.advanceRatio = 1 // only the caps displace
	type shapeRef struct {
		text string
		q    query
	}
	var shapes []shapeRef
	for _, p := range minedDistinct(t, g, maxWarmPatterns, 7) {
		for k := 1; k <= maxWarmShapes; k++ {
			if _, err := m.TopK(p, k); err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, shapeRef{patternText(p), newQuery(false, k, 0, m.base, nil)})
		}
	}
	m.cache.warm.mu.Lock()
	for _, e := range m.cache.warm.entries {
		if len(e.shapes) != maxWarmShapes {
			t.Errorf("an entry carries %d shapes, want %d", len(e.shapes), maxWarmShapes)
		}
	}
	m.cache.warm.mu.Unlock()

	// The toucher shares nothing with the committer but the registry lock:
	// the sweep counter only flows toucher → committer.
	var sweeps atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for _, s := range shapes {
				m.cache.warm.touch(s.text, s.q)
			}
			sweeps.Add(1)
		}
	}()
	const commits = 4
	for i := 0; i < commits; i++ {
		var d Delta
		d.AddNode("untouched") // no pattern's label: every shape is carried
		if _, _, err := m.UpdateWithStats(&d); err != nil {
			t.Fatal(err)
		}
		for until := sweeps.Load() + 2; sweeps.Load() < until; {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	<-done
	if cs := m.CacheStats(); cs.Carried != commits*uint64(len(shapes)) {
		t.Fatalf("%d answers carried over %d commits of %d shapes", cs.Carried, commits, len(shapes))
	}
}

// TestWarmStateBuildLeavesLockFree pins that warmState builds a pattern state
// outside warm.mu: while one admission's build is parked, the lock is free
// and a new query on an already-warm pattern completes.
func TestWarmStateBuildLeavesLockFree(t *testing.T) {
	g := NewYouTubeLike(1_500, 12_000, 3)
	patterns := minedDistinct(t, g, 2, 3)
	warm, cold := patterns[0], patterns[1]
	m := NewMatcher(g, WithCache(64))
	if _, err := m.TopK(warm, 5); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	build := buildPatternState
	buildPatternState = func(g *Graph, text string, p *Pattern) *patternState {
		if text == patternText(cold) {
			close(entered)
			<-release
		}
		return build(g, text, p)
	}
	defer func() { buildPatternState = build }()

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = m.TopK(cold, 5) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the pattern state build never started")
	}
	if !m.cache.warm.mu.TryLock() {
		t.Error("warm.mu is held while a pattern state is built")
	} else {
		m.cache.warm.mu.Unlock()
	}
	read := make(chan error, 1)
	wg.Add(1)
	go func() { defer wg.Done(); _, err := m.TopK(warm, 6); read <- err }()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a query on a warm pattern did not complete while another pattern's state was built")
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
		checkProvenance(t, info.Cache)
		want, err := ref.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d version %d (cache %q): warm session diverged from never-cached one", k, info.Version, info.Cache)
		}
		warm.cache.warm.mu.Lock()
		defer warm.cache.warm.mu.Unlock()
		if n := len(warm.cache.warm.entries); n > maxWarmPatterns {
			t.Fatalf("registry holds %d states, cap %d", n, maxWarmPatterns)
		}
		for text, e := range warm.cache.warm.entries {
			if n := len(e.shapes); n > maxWarmShapes {
				t.Fatalf("pattern %q carries %d shapes, cap %d", text, n, maxWarmShapes)
			}
		}
		return info.Cache
	}
	sessions := func() (warm, ref *Matcher) {
		warm = NewMatcher(g, WithCache(1024))
		warm.cache.advanceRatio = 1 // never evict by work share: only the caps displace
		return warm, NewMatcher(g)
	}
	commit := func(t *testing.T, ms ...*Matcher) {
		t.Helper()
		for _, m := range ms {
			if _, _, err := m.UpdateWithStats(d); err != nil {
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
			if c := ask(t, warm, ref, q, 5); c != "miss" {
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
			if c := ask(t, warm, ref, q, 5); c != "miss" {
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

// churnPlan generates deltas in the tracked benchmark's mix (benchmark/
// inputs.go, planUpdates): 60 % append a leaf node under a parent, 20 % insert
// an edge between existing nodes, 20 % delete an edge the plan inserted
// earlier. Where the benchmark aims every update at its hot patterns' label
// edges, a third of these follow a label edge of the maintained patterns, a
// third stay on labels no maintained pattern uses, and a third pair any two
// labels — an appended candidate under a non-candidate parent, a foreign leaf
// under a candidate — so the chain keeps crossing both sides of the advance
// pass's two guards.
type churnPlan struct {
	rng         *rand.Rand
	aimedOnly   bool // the benchmark's own plan: every update on a pattern's label edge
	n           int  // node count once every delta handed out so far is applied
	labels      []string
	byLabel     map[string][]int
	aimed, away [][2]string
	used        map[[2]int]bool
	inserted    [][2]int
}

func newChurnPlan(rng *rand.Rand, g *Graph, patterns []*Pattern) *churnPlan {
	c := &churnPlan{rng: rng, n: g.NumNodes(), byLabel: map[string][]int{}, used: map[[2]int]bool{}}
	for v := 0; v < g.NumNodes(); v++ {
		l := g.Label(v)
		if c.byLabel[l] == nil {
			c.labels = append(c.labels, l)
		}
		c.byLabel[l] = append(c.byLabel[l], v)
	}
	hot := map[string]bool{}
	for _, p := range patterns {
		for u := 0; u < p.p.NumNodes(); u++ {
			hot[p.p.Label(u)] = true
			for _, w := range p.p.Out(u) {
				c.aimed = append(c.aimed, [2]string{p.p.Label(u), p.p.Label(w)})
			}
		}
	}
	var cold []string
	for _, l := range c.labels {
		if !hot[l] {
			cold = append(cold, l)
		}
	}
	for _, a := range cold {
		for _, b := range cold {
			c.away = append(c.away, [2]string{a, b})
		}
	}
	return c
}

// next returns one single-operation delta, valid once every delta handed out
// before it has been applied.
func (c *churnPlan) next() *Delta {
	var le [2]string
	switch r := c.rng.Intn(3); {
	case r == 0 || c.aimedOnly:
		le = c.aimed[c.rng.Intn(len(c.aimed))]
	case r == 1 && len(c.away) > 0:
		le = c.away[c.rng.Intn(len(c.away))]
	default:
		le = [2]string{c.labels[c.rng.Intn(len(c.labels))], c.labels[c.rng.Intn(len(c.labels))]}
	}
	parents, children := c.byLabel[le[0]], c.byLabel[le[1]]
	var d Delta
	switch r := c.rng.Intn(10); {
	case r < 6:
		d.AddNode(le[1])
		d.InsertEdge(parents[c.rng.Intn(len(parents))], c.n)
		c.byLabel[le[1]] = append(c.byLabel[le[1]], c.n)
		c.n++
	case r < 8 || len(c.inserted) == 0:
		e := [2]int{parents[c.rng.Intn(len(parents))], children[c.rng.Intn(len(children))]}
		d.InsertEdge(e[0], e[1])
		if !c.used[e] { // a repeat is a legal no-op insert; only the first is deletable
			c.used[e] = true
			c.inserted = append(c.inserted, e)
		}
	default:
		i := c.rng.Intn(len(c.inserted))
		e := c.inserted[i]
		c.inserted = append(c.inserted[:i], c.inserted[i+1:]...)
		d.DeleteEdge(e[0], e[1])
	}
	return &d
}

// minedDistinct mines n structurally distinct patterns from g, in the tracked
// benchmark's shapes: |Vp| cycling through 4, 5, 6, every second one cyclic.
func minedDistinct(t testing.TB, g *Graph, n int, seed int64) []*Pattern {
	t.Helper()
	var patterns []*Pattern
	seen := map[string]bool{}
	for i, tries := 0, int64(0); len(patterns) < n; tries++ {
		if tries > 100*int64(n) {
			t.Fatalf("mined only %d distinct patterns of %d", len(patterns), n)
		}
		nodes := 4 + i%3
		q, err := GeneratePattern(g, nodes, nodes+1+(i/3)%2, i%2 == 1, false, seed*1_000_003+tries)
		if err != nil || seen[patternText(q)] {
			continue
		}
		seen[patternText(q)] = true
		patterns = append(patterns, q)
		i++
	}
	return patterns
}

// checkProvenance fails unless c is one of the provenances a caching session
// reports.
func checkProvenance(t *testing.T, c string) {
	t.Helper()
	if c != "hit" && c != "miss" && c != "advanced" {
		t.Fatalf("cache provenance %q, want hit, miss or advanced", c)
	}
}

// askKind answers one of the three query kinds on m.
func askKind(m *Matcher, q *Pattern, kind queryKind, k int) (any, QueryInfo, error) {
	switch kind {
	case kindTopKDH:
		return m.TopKDiversifiedInfo(q, k, 0.5)
	case kindTopKDiv:
		return m.TopKDiversifiedInfo(q, k, 0.5, WithApproximation())
	}
	return m.TopKInfo(q, k)
}

var allKinds = []queryKind{kindMatch, kindTopKDH, kindTopKDiv}

// TestWarmCacheCarryOverFuzz pins the carry-over rule of the advance pass on
// the traffic it was made for: chains of group commits (1–4 merged deltas) in
// the benchmark's append/insert/delete mix, aimed at and away from the
// maintained patterns' labels. After every commit every maintained shape —
// all three query kinds, k ∈ {1, 10} — must be deeply equal to a never-cached
// session's answer at the version the warm session reports, whether the pass
// carried it, re-ran it or evicted its state. The chain must also exercise
// the rule: the session carries and re-evaluates answers, and per commit the
// counters add up.
func TestWarmCacheCarryOverFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := NewSynthetic(400, 2_000, 16, seed)
			patterns := minedDistinct(t, base, 5, seed)
			plan := newChurnPlan(rng, base, patterns)
			ref := NewMatcher(base)
			sessions := []struct {
				name string
				m    *Matcher
			}{
				{"index-bounds", NewMatcher(base, WithCache(1024))},
			}
			check := func(step int) {
				for _, s := range sessions {
					for pi, q := range patterns {
						for _, kind := range allKinds {
							for _, k := range []int{1, 10} {
								got, info, err := askKind(s.m, q, kind, k)
								if err != nil {
									t.Fatalf("step %d %s pattern %d kind %d k=%d (warm): %v", step, s.name, pi, kind, k, err)
								}
								want, refInfo, err := askKind(ref, q, kind, k)
								if err != nil {
									t.Fatalf("step %d %s pattern %d kind %d k=%d (ref): %v", step, s.name, pi, kind, k, err)
								}
								if info.Version != refInfo.Version {
									t.Fatalf("step %d %s: warm session at version %d, reference at %d", step, s.name, info.Version, refInfo.Version)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("step %d %s pattern %d kind %d k=%d (cache %q): diverged from the never-cached session:\ngot  %+v\nwant %+v",
										step, s.name, pi, kind, k, info.Cache, got, want)
								}
							}
						}
					}
				}
			}
			check(-1)
			for step := 0; step < 12; step++ {
				batch := make([]*Delta, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = plan.next()
				}
				if _, _, err := updateBatch(ref, batch); err != nil {
					t.Fatalf("step %d (ref): %v", step, err)
				}
				for _, s := range sessions {
					_, st, err := updateBatch(s.m, batch)
					if err != nil {
						t.Fatalf("step %d %s: %v", step, s.name, err)
					}
					if st.WarmStates != len(patterns) || st.WarmTouched > st.WarmStates || st.WarmEvicted > st.WarmTouched {
						t.Fatalf("step %d %s: inconsistent warm counters %+v", step, s.name, st)
					}
					if shapes := (st.WarmStates - st.WarmEvicted) * len(allKinds) * 2; st.WarmCarried+st.WarmReevaluated != shapes {
						t.Fatalf("step %d %s: %d carried + %d re-evaluated, want %d answers accounted for: %+v",
							step, s.name, st.WarmCarried, st.WarmReevaluated, shapes, st)
					}
				}
				check(step)
			}
			for _, s := range sessions {
				if cs := s.m.CacheStats(); cs.Carried == 0 || cs.Reevaluated == 0 || cs.Carried+cs.Reevaluated != cs.Advanced {
					t.Errorf("%s: the chain did not exercise both sides of the rule: %+v", s.name, cs)
				}
			}
		})
	}
}

// warmOn returns a caching session over g with the three query kinds (k = 1)
// of q maintained, and the answers they gave.
func warmOn(t *testing.T, g *Graph, q *Pattern) (*Matcher, map[queryKind]any) {
	t.Helper()
	m := NewMatcher(g, WithCache(64))
	before := map[queryKind]any{}
	for _, kind := range allKinds {
		v, info, err := askKind(m, q, kind, 1)
		if err != nil || info.Cache != "miss" {
			t.Fatalf("warming kind %d: cache %q, err %v", kind, info.Cache, err)
		}
		before[kind] = v
	}
	return m, before
}

// TestWarmCarryOverDirected walks one small graph through the three deltas
// that separate the advance pass's guards. The pattern is A* → B; a1 has five
// B children and a non-candidate child z1, a2 and a3 one B child each, so
// with k = 1 TopKDH stops after the first leaf with a1 matched and
// unfinalized — its reported upper bound is the index's.
func TestWarmCarryOverDirected(t *testing.T) {
	b := NewGraphBuilder()
	a1 := b.AddNode("A")
	var bs []int
	for i := 0; i < 5; i++ {
		bs = append(bs, b.AddNode("B"))
	}
	a2, a3 := b.AddNode("A"), b.AddNode("A")
	b6, b7 := b.AddNode("B"), b.AddNode("B")
	z1, b9 := b.AddNode("Z"), b.AddNode("B")
	x1, y1 := b.AddNode("X"), b.AddNode("Y")
	edges := [][2]int{{a2, b6}, {a3, b7}, {a1, z1}, {x1, y1}}
	for _, c := range bs {
		edges = append(edges, [2]int{a1, c})
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	pb := NewPatternBuilder()
	if err := pb.AddEdge(pb.AddNode("A"), pb.AddNode("B")); err != nil {
		t.Fatal(err)
	}
	q, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}

	// commit applies d and asks the three query kinds again: all must answer
	// from the entries the pass installed, equal to a cold evaluation of the
	// new snapshot.
	commit := func(t *testing.T, m *Matcher, d *Delta) (IndexStats, map[queryKind]any) {
		t.Helper()
		g2, st, err := m.UpdateWithStats(d)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewMatcher(g2)
		after := map[queryKind]any{}
		for _, kind := range allKinds {
			got, info, err := askKind(m, q, kind, 1)
			if err != nil || info.Cache != "advanced" {
				t.Fatalf("kind %d after the commit: cache %q, err %v", kind, info.Cache, err)
			}
			want, _, err := askKind(cold, q, kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kind %d: installed answer differs from a cold evaluation:\ngot  %+v\nwant %+v", kind, got, want)
			}
			after[kind] = got
		}
		return st, after
	}

	t.Run("disjoint labels carry everything", func(t *testing.T) {
		m, before := warmOn(t, g, q)
		var d Delta
		d.AddNode("Y")
		d.InsertEdge(x1, g.NumNodes())
		d.InsertEdge(y1, x1)
		st, after := commit(t, m, &d)
		if st.WarmStates != 1 || st.WarmTouched != 0 || st.WarmReevaluated != 0 || st.WarmCarried != 3 || st.WarmEvicted != 0 {
			t.Fatalf("warm counters %+v, want one untouched state with three carried answers", st)
		}
		for _, kind := range allKinds {
			if after[kind] != before[kind] {
				t.Errorf("kind %d: a carried answer is not the previous value itself", kind)
			}
		}
	})

	t.Run("a moved bound vector re-runs the early-termination kinds only", func(t *testing.T) {
		m, before := warmOn(t, g, q)
		// z1 is no candidate, so the state is untouched; but a1 reaches z1, so
		// a1's count of B descendants — its initial upper bound — goes 5 → 6.
		var d Delta
		d.InsertEdge(z1, b9)
		st, after := commit(t, m, &d)
		if st.WarmTouched != 0 || st.WarmReevaluated != 1 || st.WarmCarried != 2 {
			t.Fatalf("warm counters %+v, want an untouched state with one answer re-run and two carried", st)
		}
		for _, kind := range []queryKind{kindMatch, kindTopKDiv} {
			if after[kind] != before[kind] {
				t.Errorf("kind %d: a find-all answer on an untouched state was not carried", kind)
			}
		}
		// What a pass without the bound-vector guard would have served.
		if got, old := after[kindTopKDH].(*DiversifiedResult), before[kindTopKDH].(*DiversifiedResult); reflect.DeepEqual(got, old) {
			t.Errorf("topkdh: the answer did not move with the bound vector: %+v", got)
		}
	})

	t.Run("an appended candidate touches the state", func(t *testing.T) {
		m, before := warmOn(t, g, q)
		// The edge's source is no candidate, but the appended node enters
		// can(A): every answer's candidate count moves.
		var d Delta
		d.AddNode("A")
		d.InsertEdge(z1, g.NumNodes())
		st, after := commit(t, m, &d)
		if st.WarmTouched != 1 || st.WarmReevaluated != 3 || st.WarmCarried != 0 {
			t.Fatalf("warm counters %+v, want a touched state with three answers re-run", st)
		}
		if got, old := after[kindMatch].(*Result), before[kindMatch].(*Result); got.Stats.Candidates != old.Stats.Candidates+1 {
			t.Errorf("match: %d candidates after the append, %d before", got.Stats.Candidates, old.Stats.Candidates)
		}
	})
}

// TestWarmIdleAnswersAreDropped pins what the advance pass spends on answers
// nobody reads. Two shapes ride one state; every commit is followed by a read
// of the first only. While the commits touch the state, the unread one is
// re-evaluated maxWarmIdle times and forgotten by the next commit — its next
// ask is a miss evaluated on the maintained state, equal to a cold answer,
// and remembered again. While they do not, it is carried for as long as that
// is free, and forgotten by the first commit that would have to evaluate it.
// The shape that is read never ages.
func TestWarmIdleAnswersAreDropped(t *testing.T) {
	b := NewGraphBuilder()
	a1 := b.AddNode("A")
	x1 := b.AddNode("X")
	// Enough other matches that one more B under a1 stays far below the
	// work share past which a state is evicted instead of advanced.
	for i := 0; i < 24; i++ {
		from := a1
		if i >= 3 {
			from = b.AddNode("A")
		}
		if err := b.AddEdge(from, b.AddNode("B")); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	pb := NewPatternBuilder()
	if err := pb.AddEdge(pb.AddNode("A"), pb.AddNode("B")); err != nil {
		t.Fatal(err)
	}
	q, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	const read, unread = kindTopKDH, kindMatch

	// warm admits the two shapes; commit appends one node — a B under a1
	// (touching: a new candidate below a candidate) or a Y under x1 (not) —
	// and reads the first shape, which the pass must have installed.
	warm := func(t *testing.T) *Matcher {
		t.Helper()
		m := NewMatcher(g, WithCache(64))
		for _, kind := range []queryKind{read, unread} {
			if _, info, err := askKind(m, q, kind, 1); err != nil || info.Cache != "miss" {
				t.Fatalf("warming kind %d: cache %q, err %v", kind, info.Cache, err)
			}
		}
		return m
	}
	commit := func(t *testing.T, m *Matcher, touching bool) IndexStats {
		t.Helper()
		var d Delta
		if touching {
			d.AddNode("B")
			d.InsertEdge(a1, m.Graph().NumNodes())
		} else {
			d.AddNode("Y")
			d.InsertEdge(x1, m.Graph().NumNodes())
		}
		_, st, err := m.UpdateWithStats(&d)
		if err != nil {
			t.Fatal(err)
		}
		if _, info, err := askKind(m, q, read, 1); err != nil || info.Cache != "advanced" {
			t.Fatalf("version %d: the shape read after every commit answered %q, err %v", m.Graph().Version(), info.Cache, err)
		}
		return st
	}
	counts := func(st IndexStats) [3]int { return [3]int{st.WarmReevaluated, st.WarmCarried, st.WarmDropped} }

	t.Run("touched", func(t *testing.T) {
		m := warm(t)
		for i := 1; i <= maxWarmIdle; i++ {
			if got := counts(commit(t, m, true)); got != [3]int{2, 0, 0} {
				t.Fatalf("commit %d: re-evaluated/carried/dropped %v, want both shapes re-evaluated", i, got)
			}
		}
		if got := counts(commit(t, m, true)); got != [3]int{1, 0, 1} {
			t.Fatalf("commit %d: re-evaluated/carried/dropped %v, want the unread shape dropped and the read one re-evaluated", maxWarmIdle+1, got)
		}
		got, info, err := askKind(m, q, unread, 1)
		if err != nil || info.Cache != "miss" {
			t.Fatalf("the dropped shape answered %q, err %v; want a miss", info.Cache, err)
		}
		if want, _, _ := askKind(NewMatcher(m.Graph()), q, unread, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("the dropped shape, evaluated on the maintained state, differs from a cold evaluation:\ngot  %+v\nwant %+v", got, want)
		}
		if got := counts(commit(t, m, true)); got != [3]int{2, 0, 0} {
			t.Fatalf("after the miss: re-evaluated/carried/dropped %v, want the shape riding the state again", got)
		}
		if _, info, err := askKind(m, q, unread, 1); err != nil || info.Cache != "advanced" {
			t.Fatalf("the re-admitted shape answered %q, err %v", info.Cache, err)
		}
	})

	t.Run("carried while that is free", func(t *testing.T) {
		m := warm(t)
		for i := 1; i <= maxWarmIdle+3; i++ {
			if got := counts(commit(t, m, false)); got != [3]int{0, 2, 0} {
				t.Fatalf("commit %d: re-evaluated/carried/dropped %v, want both shapes carried", i, got)
			}
		}
		if got := counts(commit(t, m, true)); got != [3]int{1, 0, 1} {
			t.Fatalf("first touching commit: re-evaluated/carried/dropped %v, want the unread shape dropped", got)
		}
	})
}

// TestWarmRegistryHotPatternsSurviveOneOffs pins the registry's recency to
// use, not evaluation. Before, a hit never refreshed a pattern's tick, so each
// one-off miss displaced the hot pattern admitted longest ago, which then
// missed after the next commit and displaced the next.
func TestWarmRegistryHotPatternsSurviveOneOffs(t *testing.T) {
	g := NewYouTubeLike(1_500, 12_000, 3)
	all := minedDistinct(t, g, maxWarmPatterns+40, 11)
	session := func(t *testing.T) (m *Matcher, ask func(q *Pattern) string, commit func(i int)) {
		m = NewMatcher(g, WithCache(4096))
		m.cache.advanceRatio = 1 // only the caps displace
		rng := rand.New(rand.NewSource(5))
		ask = func(q *Pattern) string {
			t.Helper()
			_, info, err := m.TopKInfo(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			checkProvenance(t, info.Cache)
			return info.Cache
		}
		commit = func(i int) {
			t.Helper()
			if _, _, err := m.UpdateWithStats(mineBatchDelta(rng, m.Graph(), i)); err != nil {
				t.Fatal(err)
			}
		}
		return m, ask, commit
	}
	// A full registry of hot patterns answered only by hits — the first ask
	// after each commit served from the entry the advance pass installed, the
	// rest plain hits — keeps every slot through 20 commits while 40 one-off
	// patterns miss beside them: a state that has served an installed answer
	// since the last commit is not displaced.
	t.Run("full registry", func(t *testing.T) {
		hot, cold := all[:maxWarmPatterns], all[maxWarmPatterns:]
		m, ask, commit := session(t)
		for _, q := range hot {
			if c := ask(q); c != "miss" {
				t.Fatalf("warming a hot pattern: cache %q", c)
			}
		}
		for i := 0; i < 20; i++ {
			commit(i)
			for j, q := range hot {
				if c := ask(q); c != "advanced" {
					t.Fatalf("commit %d: hot pattern %d lost its slot: first ask answered %q", i, j, c)
				}
				if c := ask(q); c != "hit" {
					t.Fatalf("commit %d: hot pattern %d: second ask answered %q", i, j, c)
				}
			}
			for _, q := range cold[2*i : 2*i+2] {
				if c := ask(q); c != "miss" {
					t.Fatalf("commit %d: a one-off pattern answered %q", i, c)
				}
			}
		}
		m.cache.warm.mu.Lock()
		defer m.cache.warm.mu.Unlock()
		for j, q := range hot {
			if m.cache.warm.entries[patternText(q)] == nil {
				t.Errorf("hot pattern %d is no longer maintained", j)
			}
		}
	})

	// When the one-off arrives before the hot patterns' first asks of the
	// round nothing is proven yet and recency alone picks the victim: it must
	// be the stale one-off admitted after the hot patterns, because serving
	// installed answers refreshed their ticks past its.
	t.Run("one-off arrives first", func(t *testing.T) {
		hot, stale, oneOff := all[:maxWarmPatterns-1], all[maxWarmPatterns-1], all[maxWarmPatterns]
		m, ask, commit := session(t)
		for _, q := range append(hot[:len(hot):len(hot)], stale) {
			if c := ask(q); c != "miss" {
				t.Fatalf("warming: cache %q", c)
			}
		}
		commit(0)
		for j, q := range hot {
			if c := ask(q); c != "advanced" {
				t.Fatalf("hot pattern %d: first ask after the commit answered %q", j, c)
			}
		}
		commit(1)
		if c := ask(oneOff); c != "miss" {
			t.Fatalf("the one-off pattern answered %q", c)
		}
		commit(2) // the displaced state is the one this commit no longer advances
		for j, q := range hot {
			if c := ask(q); c != "advanced" {
				t.Fatalf("hot pattern %d lost its slot to a one-off: first ask answered %q", j, c)
			}
		}
		m.cache.warm.mu.Lock()
		defer m.cache.warm.mu.Unlock()
		if m.cache.warm.entries[patternText(stale)] != nil || m.cache.warm.entries[patternText(oneOff)] == nil {
			t.Errorf("the one-off should have replaced the stale pattern")
		}
	})
}
