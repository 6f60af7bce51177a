package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"divtopk/internal/graph"
	"divtopk/internal/testutil"
)

func TestBoundsCacheWarmAndLazy(t *testing.T) {
	g, _ := testutil.Figure1()
	warm := NewBoundsCache(g, true)
	warm.Warm(nil)
	lazy := NewBoundsCache(g, true)
	for _, name := range g.Dict().Names() {
		id, _ := g.Dict().ID(name)
		a, b := warm.countsFor(id), lazy.countsFor(id)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("label %s node %d: warm %d vs lazy %d", name, v, a[v], b[v])
			}
		}
	}
	// Warming a subset then the rest must not double-count.
	part := NewBoundsCache(g, true)
	part.Warm([]string{"PM"})
	part.Warm(nil)
	id, _ := g.Dict().ID("ST")
	if part.countsFor(id) == nil {
		t.Fatal("partial warm lost labels")
	}
}

// TestBoundsCacheFillLeavesLockFree pins that countsFor fills a cold label
// outside c.mu: while the fill is parked, the lock is free and a reader of a
// warm label completes.
func TestBoundsCacheFillLeavesLockFree(t *testing.T) {
	g, _ := testutil.Figure1()
	c := NewBoundsCache(g, true)
	warm, _ := g.Dict().ID("PM")
	cold, _ := g.Dict().ID("ST")
	c.countsFor(warm)

	entered, release := make(chan struct{}), make(chan struct{})
	fill := descendantLabelCounts
	descendantLabelCounts = func(g *graph.Graph, labels []graph.LabelID, mode graph.DescMode) [][]int32 {
		if labels[0] == cold {
			close(entered)
			<-release
		}
		return fill(g, labels, mode)
	}
	defer func() { descendantLabelCounts = fill }()

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() { defer wg.Done(); c.countsFor(cold) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the fill of the cold label never started")
	}
	if !c.mu.TryLock() {
		t.Error("c.mu is held while a label fills")
	} else {
		c.mu.Unlock()
	}
	read := make(chan struct{})
	wg.Add(1)
	go func() { defer wg.Done(); c.countsFor(warm); close(read) }()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Error("a reader of a warm label did not complete while another label filled")
	}
}

func TestCachedBoundsAgreeWithDirect(t *testing.T) {
	// The cached label-count aggregation must equal the per-query
	// BoundLabelCount computation pairwise.
	rng := rand.New(rand.NewSource(4))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n), labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(3), labels, trial%2 == 0)
		cache := NewBoundsCache(g, true)
		direct, err := TopK(g, p, 2, Options{Bounds: BoundLabelCount})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := TopK(g, p, 2, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.All) != len(cached.All) {
			t.Fatalf("trial %d: %d vs %d matches", trial, len(direct.All), len(cached.All))
		}
		for i := range direct.All {
			if direct.All[i].Node != cached.All[i].Node || direct.All[i].Upper != cached.All[i].Upper {
				t.Fatalf("trial %d: match %d differs: %+v vs %+v",
					trial, i, direct.All[i], cached.All[i])
			}
		}
	}
}

func TestUpperOverrideOracle(t *testing.T) {
	// Overriding the bounds with exact relevances must preserve the answer
	// set (it remains a sound bound).
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	base, err := MatchBaseline(g, p, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[graph.NodeID]int32{}
	for _, m := range base.All {
		oracle[m.Node] = int32(m.Relevance)
	}
	res, err := TopK(g, p, 2, Options{UpperOverride: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0].Relevance+res.Matches[1].Relevance > 14 {
		t.Fatalf("oracle run wrong: %+v", res.Matches)
	}
}

func TestFeederGeometricBatches(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	e, err := newEngine(g, p, 2, Options{NumBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	sizes := []int{}
	for {
		b := e.feeder.next(e)
		if len(b) == 0 {
			break
		}
		sizes = append(sizes, len(b))
		total += len(b)
	}
	if total != 4 { // the four ST leaf pairs
		t.Fatalf("fed %d leaf pairs, want 4 (sizes %v)", total, sizes)
	}
	// Sizes must be non-decreasing (geometric growth).
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("batch sizes not non-decreasing: %v", sizes)
		}
	}
	if e.feeder.next(e) != nil {
		t.Fatal("exhausted feeder returned a batch")
	}
}

func TestFeederSkipsDead(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	e, err := newEngine(g, p, 2, Options{NumBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Kill one leaf pair before feeding.
	lo, _ := e.ci.PairRange(3)
	e.die(lo)
	e.drainEvents()
	total := 0
	for {
		b := e.feeder.next(e)
		if len(b) == 0 {
			break
		}
		for _, q := range b {
			if e.status[q] == statusDead {
				t.Fatal("dead pair handed out")
			}
		}
		total += len(b)
	}
	if total != 3 {
		t.Fatalf("fed %d, want 3", total)
	}
}

// recordingHook captures the hook protocol for assertions.
type recordingHook struct {
	cuo     int
	batches int
	nodes   map[graph.NodeID]bool
}

func (h *recordingHook) Begin(cuo int) { h.cuo = cuo }
func (h *recordingHook) Batch(newMatches []PairHandle) {
	h.batches++
	for _, m := range newMatches {
		if h.nodes[m.Node()] {
			// A match must be surfaced exactly once.
			panic("duplicate hook delivery")
		}
		h.nodes[m.Node()] = true
		if m.Lower() < 0 {
			panic("negative lower bound")
		}
		_ = m.R()
	}
}

func TestHookProtocol(t *testing.T) {
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	h := &recordingHook{nodes: map[graph.NodeID]bool{}}
	res, err := TopK(g, p, 2, Options{Hook: h, NumBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if h.cuo != 11 {
		t.Fatalf("hook Cuo = %d, want 11", h.cuo)
	}
	if h.batches != res.Stats.Batches {
		t.Fatalf("hook saw %d batches, stats say %d", h.batches, res.Stats.Batches)
	}
	// Every returned match must have been surfaced to the hook.
	for _, m := range res.Matches {
		if !h.nodes[m.Node] {
			t.Fatalf("match %d never surfaced to hook", m.Node)
		}
	}
}

func TestQuickEngineMatchesOracle(t *testing.T) {
	// testing/quick driver over the central invariant: the engine's match
	// set equals the simulation oracle's for arbitrary seeds and shapes.
	f := func(seed int64, cyclic bool, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c"}
		n := 3 + rng.Intn(15)
		g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(3), labels, cyclic)
		k := 1 + int(kRaw%5)
		base, err := MatchBaseline(g, p, k, false)
		if err != nil {
			return false
		}
		res, err := TopK(g, p, k, Options{Seed: seed, NumBatches: 1 + rng.Intn(5)})
		if err != nil {
			return false
		}
		if res.GlobalMatch != base.GlobalMatch {
			return false
		}
		if !base.GlobalMatch {
			return len(res.Matches) == 0
		}
		if len(res.Matches) != len(base.Matches) {
			return false
		}
		// Bounds must bracket the exact relevances of the same node set.
		exact := map[graph.NodeID]int{}
		for _, m := range base.All {
			exact[m.Node] = m.Relevance
		}
		for _, m := range res.Matches {
			d, ok := exact[m.Node]
			if !ok || m.Relevance > d || m.Upper < d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoundSoundness(t *testing.T) {
	// For every bound mode and every match: l <= δr <= h at termination.
	f := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b"}
		n := 3 + rng.Intn(12)
		g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(3), rng.Intn(3), labels, seed%2 == 0)
		base, err := MatchBaseline(g, p, 3, false)
		if err != nil || !base.GlobalMatch {
			return true // vacuous
		}
		exact := map[graph.NodeID]int{}
		for _, m := range base.All {
			exact[m.Node] = m.Relevance
		}
		res, err := TopK(g, p, 3, Options{Bounds: BoundMode(mode % 3)})
		if err != nil {
			return false
		}
		for _, m := range res.All {
			d, ok := exact[m.Node]
			if !ok || m.Relevance > d || m.Upper < d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
