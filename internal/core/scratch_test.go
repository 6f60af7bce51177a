package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"divtopk/internal/bitset"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
	"divtopk/internal/testutil/racedetect"
)

// minedPatterns mines n patterns from g the way the tracked benchmark does:
// |Vp| cycles through 4, 5, 6, every second one is cyclic, every third one
// carries predicates.
func minedPatterns(t testing.TB, g *graph.Graph, n int, seed int64) []*pattern.Pattern {
	t.Helper()
	var out []*pattern.Pattern
	for i, tries := 0, int64(0); len(out) < n; tries++ {
		if tries > int64(200*n) {
			t.Fatalf("mined only %d of %d patterns", len(out), n)
		}
		nodes := 4 + i%3
		p, err := gen.Generate(g, gen.PatternConfig{
			Nodes: nodes, Edges: nodes + 1 + (i/3)%2,
			Cyclic: i%2 == 1, Predicates: i%3 == 0, Seed: seed + tries,
		})
		if err != nil {
			continue
		}
		out = append(out, p)
		i++
	}
	return out
}

// poisonScratch overwrites every backing array of s, over its whole
// capacity, with all-ones bytes (0x01 for bools, whose only other valid
// representation it is) — the opposite extreme from the zeroes a fresh
// scratch starts with. It fails the test if an array's element type could
// hold a pointer: that is the property that makes the overwrite legal, and
// the one that keeps the collector from scanning the pool.
func poisonScratch(t testing.TB, s *scratch) {
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			elem := v.Type().Elem()
			if v.Cap() == 0 {
				return
			}
			full := v.Slice(0, v.Cap())
			if elem.Kind() == reflect.Slice { // the slab's chunk list
				for i := 0; i < v.Len(); i++ {
					walk(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
				}
				return
			}
			if !pointerFree(elem) {
				t.Errorf("scratch%s: element type %v can hold pointers", name, elem)
				return
			}
			fill := byte(0xFF)
			if elem.Kind() == reflect.Bool {
				fill = 1
			}
			raw := unsafe.Slice((*byte)(full.UnsafePointer()), full.Len()*int(elem.Size()))
			for i := range raw {
				raw[i] = fill
			}
		case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint:
			// Scalars are re-derived by reset; nothing to poison.
		default:
			t.Errorf("scratch%s: unexpected field kind %v", name, v.Kind())
		}
	}
	walk("", reflect.ValueOf(s).Elem())
}

func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	}
	return false
}

// withPoison poisons every released scratch for the duration of the test.
// Tests using it must not run in parallel with other engine tests.
func withPoison(t *testing.T) {
	poisonOnRelease = func(s *scratch) { poisonScratch(t, s) }
	t.Cleanup(func() { poisonOnRelease = nil })
}

// dropPooledScratch empties the kept slot and scratchPool (two collections
// move the pool's contents to the victim cache and then free them), so the
// next run starts from a freshly allocated, all-zero scratch.
func dropPooledScratch() {
	keptScratch.Store(nil)
	runtime.GC()
	runtime.GC()
}

// fingerprint renders everything a Result exposes, relevant sets included.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %d %+v space=%d |", res.GlobalMatch, res.Cuo, res.Stats, res.Space.Size())
	for i, m := range res.All {
		fmt.Fprintf(&b, "%d %d %d %v %v;", m.Node, m.Relevance, m.Upper, m.Exact, m.R.Slice())
		if i < len(res.Matches) && !reflect.DeepEqual(res.Matches[i], m) {
			b.WriteString("MATCHES-DIVERGE;")
		}
	}
	return b.String()
}

// hygieneCases is the corpus of the scratch hygiene tests: mined patterns
// (DAG, cyclic, with predicates) under options that reach every scratch
// array — both strategies, both bound sources, few and many batches.
func hygieneCases(t *testing.T) (g *graph.Graph, run []func() (*Result, error)) {
	g = gen.YouTubeLike(2500, 15000, 7)
	cache := NewBoundsCache(g, true)
	for i, p := range minedPatterns(t, g, 9, 100) {
		opts := []Options{
			{},
			{Bounds: BoundLabelCount, Cache: cache, NumBatches: 5},
			{Strategy: StrategyRandom, Seed: int64(i), NumBatches: 30},
		}[i%3]
		k := []int{1, 4, 10}[(i/3)%3]
		run = append(run, func() (*Result, error) { return TopK(g, p, k, opts) })
	}
	return g, run
}

// TestScratchOrderAndConcurrencyIndependence: a query's answer does not
// depend on what the scratch it was handed did before — nothing (a fresh
// scratch), any other query on the same goroutine, or arbitrary queries of
// eight concurrent goroutines — even when every scratch is poisoned on its
// way back to the pool.
func TestScratchOrderAndConcurrencyIndependence(t *testing.T) {
	_, run := hygieneCases(t)

	first := make([]*Result, len(run))
	for i, f := range run {
		dropPooledScratch()
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		first[i] = res
	}

	withPoison(t)
	for i := range run {
		for j := range run {
			if _, err := run[j](); err != nil {
				t.Fatal(err)
			}
			res, err := run[i]()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, first[i]) {
				t.Fatalf("query %d after query %d differs from its first-run answer:\n got %s\nwant %s",
					i, j, fingerprint(res), fingerprint(first[i]))
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 40; n++ {
				i := rng.Intn(len(run))
				res, err := run[i]()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, first[i]) {
					t.Errorf("goroutine %d: query %d differs from its first-run answer", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// retainingHook keeps what the handles hand out — the sets themselves, not
// copies — and, at every batch, a snapshot of their contents. The engine
// does not touch the sets after the last batch, so once the run is over the
// retained sets must still equal the last snapshot whatever happened to the
// scratch.
type retainingHook struct {
	sets   []*bitset.Set
	lowers []int
	snap   []*bitset.Set
	live   []PairHandle
}

func (h *retainingHook) Begin(int) {}
func (h *retainingHook) Batch(newMatches []PairHandle) {
	for _, m := range newMatches {
		h.sets = append(h.sets, m.R())
		h.live = append(h.live, m)
	}
	h.snap, h.lowers = h.snap[:0], h.lowers[:0]
	for i, s := range h.sets {
		h.snap = append(h.snap, s.Clone())
		h.lowers = append(h.lowers, h.live[i].Lower())
	}
}

// TestReleasedScratchIsUnreachableFromResults: poisoning a scratch when it
// is released — and then again by every later query that reuses it — leaves
// every Result returned so far, its Match.R sets and everything a PairHandle
// handed out exactly as they were.
func TestReleasedScratchIsUnreachableFromResults(t *testing.T) {
	_, run := hygieneCases(t)
	want := make([]string, len(run))
	for i, f := range run {
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(res)
	}

	withPoison(t)
	kept := make([]*Result, len(run))
	for i, f := range run {
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = res
		if got := fingerprint(res); got != want[i] {
			t.Fatalf("query %d under poisoning:\n got %s\nwant %s", i, got, want[i])
		}
	}
	// Later queries recycle (and re-poison) the scratches the kept results
	// were computed in.
	for round := 0; round < 3; round++ {
		for _, f := range run {
			if _, err := f(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, res := range kept {
		if got := fingerprint(res); got != want[i] {
			t.Fatalf("kept result %d changed after its scratch was recycled:\n got %s\nwant %s", i, got, want[i])
		}
	}

	g := gen.YouTubeLike(2500, 15000, 7)
	for i, p := range minedPatterns(t, g, 6, 100) {
		hook := &retainingHook{}
		res, err := TopK(g, p, 3, Options{Hook: hook, NumBatches: 6})
		if err != nil {
			t.Fatal(err)
		}
		if len(hook.sets) != res.Stats.MatchesFound {
			t.Fatalf("pattern %d: hook saw %d matches, result has %d", i, len(hook.sets), res.Stats.MatchesFound)
		}
		byNode := map[graph.NodeID]Match{}
		for _, m := range res.All {
			byNode[m.Node] = m
		}
		for j, s := range hook.sets {
			if !s.Equal(hook.snap[j]) || s.Count() != hook.lowers[j] {
				t.Fatalf("pattern %d: set %d handed out by a PairHandle changed after the run", i, j)
			}
			// Handles outlive the run harmlessly: they read the engine's
			// own output sets, never the scratch.
			m := byNode[hook.live[j].Node()]
			if hook.live[j].R() != m.R || hook.live[j].Lower() != m.Relevance {
				t.Fatalf("pattern %d: stale handle %d disagrees with the result", i, j)
			}
		}
	}
}

// TestEngineAllocationBudget pins the point of the pooled scratch: with the
// candidate index and product supplied (the serving layer's warm path, and
// what isolates the engine's own allocations), a steady-state TopK on the
// tracked benchmark's 15k-node YouTube-like graph allocates well under
// 1.5 MB per query — the relevance space, the output-node sets and the
// Result. Before the scratch the same loop allocated ≈ 3.5 MB per query.
func TestEngineAllocationBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race runtime makes sync.Pool drop entries at random")
	}
	if testing.Short() {
		t.Skip("builds a 15k-node graph")
	}
	const budget = 1.5 * (1 << 20)
	g := gen.YouTubeLike(15_000, 90_000, 1)
	cache := NewBoundsCache(g, true)
	patterns := minedPatterns(t, g, 16, 1_000_003)
	opts := make([]Options, len(patterns))
	for i, p := range patterns {
		ci := simulation.BuildCandidates(g, p)
		pre := &PrebuiltEval{CI: ci, Prod: simulation.BuildProduct(g, p, ci, 0)}
		opts[i] = Options{Bounds: BoundLabelCount, Cache: cache, Prebuilt: pre}
	}
	runAll := func(n int) {
		for i := 0; i < n; i++ {
			j := i % len(patterns)
			if _, err := TopK(g, patterns[j], 10, opts[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAll(2 * len(patterns)) // warm the bound index and size the scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	runAll(runs)
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f KiB allocated per query", perQuery/1024)
	if perQuery > budget {
		t.Fatalf("steady-state TopK allocates %.0f KiB per query, budget %.0f KiB", perQuery/1024, budget/1024)
	}
}

// TestEngineIgnoresUnreachedPairs pins that the engine gives relevant sets
// only where a live output pair reaches: 10k matched leaf pairs that no
// output candidate reaches carve no interior set from the slab, and the
// answer stays as it was.
func TestEngineIgnoresUnreachedPairs(t *testing.T) {
	run := func(unreached int) (carved int, answer string) {
		b := graph.NewBuilder()
		for i := 0; i < 50; i++ {
			a, x := b.AddNode("a", nil), b.AddNode("b", nil)
			_ = b.AddEdge(a, x)
			if i > 0 {
				_ = b.AddEdge(a, x-2)
			}
		}
		for i := 0; i < unreached; i++ {
			b.AddNode("b", nil)
		}
		g := b.Build()
		p := pattern.New()
		out, leaf := p.AddNode("a"), p.AddNode("b")
		if err := p.AddEdge(out, leaf); err != nil {
			t.Fatal(err)
		}
		// k above the 50 output candidates: every leaf pair is fed.
		e, err := newEngine(g, p, 64, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.release()
		res := e.run()
		if got := int(e.matchCnt[leaf]); got != 50+unreached {
			t.Fatalf("%d leaf pairs matched, want %d", got, 50+unreached)
		}
		for _, h := range e.rslot {
			if h != 0 {
				carved++
			}
		}
		for _, m := range res.All {
			answer += fmt.Sprintf("%d:%d:%v:%v ", m.Node, m.Relevance, m.Exact, res.Space.NodesOf(m.R))
		}
		return carved, answer
	}
	baseCarved, base := run(0)
	wideCarved, wide := run(10_000)
	if wideCarved > baseCarved {
		t.Fatalf("%d interior sets carved with 10k unreached leaf pairs, %d without", wideCarved, baseCarved)
	}
	if wide != base {
		t.Fatalf("answer changed with unreached pairs:\n%s\n%s", wide, base)
	}
}
