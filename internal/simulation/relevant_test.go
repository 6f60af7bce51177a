package simulation

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
	"divtopk/internal/testutil/racedetect"
)

// relevantFixture computes everything needed for relevant-set assertions.
func relevantFixture(t *testing.T, keepSets bool) (*graph.Graph, map[string]graph.NodeID, *pattern.Pattern, *Result, *RelevantResult) {
	t.Helper()
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	prod := BuildProduct(g, p, ci, 0)
	res := ComputeWithProduct(prod)
	if !res.Matched {
		t.Fatal("fixture must match")
	}
	an := pattern.Analyze(p)
	space := BuildRelSpace(g, p, res.CI, an)
	rel := ComputeRelevant(prod, space, res.InSim, p.Output(), keepSets)
	return g, id, p, res, rel
}

func TestExample4RelevantSets(t *testing.T) {
	_, id, p, res, rel := relevantFixture(t, true)
	want := map[string][]string{
		"PM1": {"DB1", "PRG1", "ST1", "ST2"},
		"PM2": {"DB2", "DB3", "PRG2", "PRG3", "PRG4", "ST2", "ST3", "ST4"},
		"PM3": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
		"PM4": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
	}
	lo, _ := res.CI.PairRange(p.Output())
	for name, members := range want {
		pid := res.CI.Pair(p.Output(), id[name])
		if pid < 0 {
			t.Fatalf("%s is not a PM candidate", name)
		}
		i := pid - lo
		if got := rel.Sizes[i]; got != int32(len(members)) {
			t.Errorf("δr(PM,%s) = %d, want %d (Example 4)", name, got, len(members))
		}
		set := rel.Sets[i]
		if set == nil {
			t.Fatalf("set for %s not kept", name)
		}
		gotNodes := map[graph.NodeID]bool{}
		for _, v := range rel.Space.NodesOf(set) {
			gotNodes[v] = true
		}
		for _, m := range members {
			if !gotNodes[id[m]] {
				t.Errorf("R(PM,%s) missing %s", name, m)
			}
		}
		if len(gotNodes) != len(members) {
			t.Errorf("R(PM,%s) has %d members, want %d", name, len(gotNodes), len(members))
		}
	}
}

func TestSelfInclusionOnCycle(t *testing.T) {
	// Example 8: DB3's relevant set contains DB3 itself (cycle membership).
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res := Compute(g, p)
	an := pattern.Analyze(p)
	m := RelevantSetNaive(g, p, res.CI, res.InSim, 1 /*DB*/, id["DB3"])
	wantMembers := []string{"ST3", "ST4", "DB2", "DB3", "PRG2", "PRG3"}
	if m.Count() != len(wantMembers) {
		t.Fatalf("R(DB,DB3) = %v, want %v", m, wantMembers)
	}
	for _, w := range wantMembers {
		if !m.Contains(int(id[w])) {
			t.Fatalf("R(DB,DB3) missing %s", w)
		}
	}
	_ = an
}

func TestCandidateProductUpperBoundExamples(t *testing.T) {
	// The h values of Examples 7 and 8 are relevant-set sizes over the
	// *candidate* product graph (alive = nil).
	g, id := testutil.Figure1()

	// Example 7, pattern Q1: h(PM2)=3, h(PM3)=2, h(PRG3)=h(PRG4)=1, h(DBk)=0.
	q1 := testutil.Example7Pattern()
	ci := BuildCandidates(g, q1)
	prod1 := BuildProduct(g, q1, ci, 0)
	an := pattern.Analyze(q1)
	space := BuildRelSpace(g, q1, ci, an)

	relPM := ComputeRelevant(prod1, space, nil, 0, false)
	lo, _ := ci.PairRange(0)
	// PM4 is not listed in the paper's table; its bound is
	// R̂(PM,PM4) = {DB2, PRG2, DB3} = 3 (PRG2's only DB-successor is DB3).
	wantPM := map[string]int32{"PM1": 2, "PM2": 3, "PM3": 2, "PM4": 3}
	for name, want := range wantPM {
		i := ci.Pair(0, id[name]) - lo
		if relPM.Sizes[i] != want {
			t.Errorf("Q1 ĥ(PM,%s) = %d, want %d", name, relPM.Sizes[i], want)
		}
	}
	relPRG := ComputeRelevant(prod1, space, nil, 2, false)
	loPRG, _ := ci.PairRange(2)
	for _, name := range []string{"PRG3", "PRG4"} {
		i := ci.Pair(2, id[name]) - loPRG
		if relPRG.Sizes[i] != 1 {
			t.Errorf("Q1 ĥ(PRG,%s) = %d, want 1 (Example 7)", name, relPRG.Sizes[i])
		}
	}

	// Example 8, full pattern Q: ĥ(DB2)=6, ĥ(PRG4)=7, ĥ(PM1)=4.
	q := testutil.Figure1Pattern()
	ci2 := BuildCandidates(g, q)
	prod2 := BuildProduct(g, q, ci2, 0)
	an2 := pattern.Analyze(q)
	space2 := BuildRelSpace(g, q, ci2, an2)

	relDB := ComputeRelevant(prod2, space2, nil, 1, false)
	loDB, _ := ci2.PairRange(1)
	if got := relDB.Sizes[ci2.Pair(1, id["DB2"])-loDB]; got != 6 {
		t.Errorf("ĥ(DB,DB2) = %d, want 6 (Example 8)", got)
	}
	relPRG2 := ComputeRelevant(prod2, space2, nil, 2, false)
	loP, _ := ci2.PairRange(2)
	if got := relPRG2.Sizes[ci2.Pair(2, id["PRG4"])-loP]; got != 7 {
		t.Errorf("ĥ(PRG,PRG4) = %d, want 7 (Example 8)", got)
	}
	relPMq := ComputeRelevant(prod2, space2, nil, 0, false)
	loPM, _ := ci2.PairRange(0)
	if got := relPMq.Sizes[ci2.Pair(0, id["PM1"])-loPM]; got != 4 {
		t.Errorf("ĥ(PM,PM1) = %d, want 4 (Example 8)", got)
	}
	// Example 8 prints PM2.h = 7; the candidate-product bound gives 8
	// (R̂(PM,PM2) = {DB2,DB3,PRG2,PRG3,PRG4,ST2,ST3,ST4}). Every other h in
	// Examples 7-8 reproduces exactly; we treat the 7 as a typo for 8 and
	// pin the sound value here.
	if got := relPMq.Sizes[ci2.Pair(0, id["PM2"])-loPM]; got != 8 {
		t.Errorf("ĥ(PM,PM2) = %d, want 8 (paper prints 7, a typo)", got)
	}
}

// TestRelevantAgainstNaiveProperty checks every relevant set the kernel
// returns, with every query node as root, against a direct product DFS. The
// kernel never consults the pattern's output-descendant analysis, so roots
// other than the output pin its restriction to the reached region on their
// own; the space covers only the output's descendants, so the naive set is
// compared within it.
func TestRelevantAgainstNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(14)
		g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
		var p *pattern.Pattern
		if trial%3 == 0 {
			p = testutil.NonRootPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		} else {
			p = testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		}
		ci := BuildCandidates(g, p)
		prod := BuildProduct(g, p, ci, 0)
		res := ComputeWithProduct(prod)
		an := pattern.Analyze(p)
		space := BuildRelSpace(g, p, res.CI, an)

		for root := 0; root < p.NumNodes(); root++ {
			for _, alive := range [][]bool{nil, res.InSim} {
				rel := ComputeRelevant(prod, space, alive, root, true)
				lo, hi := res.CI.PairRange(root)
				for pid := lo; pid < hi; pid++ {
					size, set := rel.Sizes[pid-lo], rel.Sets[pid-lo]
					if alive != nil && !alive[pid] {
						if size != -1 || set != nil {
							t.Fatalf("trial %d root %d: dead pair has size %d, set %v", trial, root, size, set)
						}
						continue
					}
					want := space.NewSet()
					RelevantSetNaive(g, p, res.CI, alive, root, res.CI.V[pid]).ForEach(func(v int) bool {
						if idx := space.Index(graph.NodeID(v)); idx >= 0 {
							want.Add(int(idx))
						}
						return true
					})
					if set == nil || !set.Equal(want) || int(size) != want.Count() {
						t.Fatalf("trial %d root %d: pair (%d,%d) has size %d set %v, naive %v\npattern=%s",
							trial, root, root, res.CI.V[pid], size, set, want, p)
					}
				}
			}
		}
	}
}

// TestComputeRelevantIgnoresUnreachedPairs pins that the kernel's allocation
// follows the region the root reaches: adding 10k alive leaf pairs that no
// root pair reaches must not add a byte.
func TestComputeRelevantIgnoresUnreachedPairs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race runtime instruments allocations")
	}
	allocated := func(unreached int) uint64 {
		b := graph.NewBuilder()
		for i := 0; i < 50; i++ {
			a, x := b.AddNode("a", nil), b.AddNode("b", nil)
			_ = b.AddEdge(a, x)
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
		ci := BuildCandidates(g, p)
		prod := BuildProduct(g, p, ci, 0)
		res := ComputeWithProduct(prod)
		space := BuildRelSpace(g, p, ci, pattern.Analyze(p))
		if got := ci.NumPairs(); got != 100+unreached {
			t.Fatalf("fixture has %d pairs, want %d", got, 100+unreached)
		}
		var before, after runtime.MemStats
		best := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			ComputeRelevant(prod, space, res.InSim, out, true)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	if base, wide := allocated(0), allocated(10_000); wide > base {
		t.Fatalf("ComputeRelevant allocated %d bytes with 10k unreached leaf pairs, %d without", wide, base)
	}
}

// ladder builds a product whose condensation has about 2·levels components,
// every one reached from the root: a b-node spine v0 → … → v_levels
// with one leaf side node v_i → s_i per spine node, and one a-node → v0.
// Over the pattern a → b ⇄ b each spine pair reads the next spine pair and
// its side pair, and is their only reader.
func ladder(levels int) (*Product, *RelSpace) {
	b := graph.NewBuilder()
	a := b.AddNode("a", nil)
	spine := b.AddNode("b", nil)
	_ = b.AddEdge(a, spine)
	for i := 0; i < levels; i++ {
		next := b.AddNode("b", nil)
		side := b.AddNode("b", nil)
		_ = b.AddEdge(spine, next)
		_ = b.AddEdge(spine, side)
		spine = next
	}
	g := b.Build()
	p := pattern.New()
	out, u1, u2 := p.AddNode("a"), p.AddNode("b"), p.AddNode("b")
	for _, e := range [][2]int{{out, u1}, {u1, u2}, {u2, u1}} {
		if err := p.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	if err := p.SetOutput(out); err != nil {
		panic(err)
	}
	ci := BuildCandidates(g, p)
	return BuildProduct(g, p, ci, 0), BuildRelSpace(g, p, ci, pattern.Analyze(p))
}

// TestComputeRelevantRecyclesArenaSets pins ComputeRelevant's release
// bookkeeping: every interior working set's slab block goes back to the
// sweep's free list once its last reader has consumed it, so the slab stays
// as wide as the condensation's frontier and the bytes allocated stay linear
// in the product. A block that is never freed — answers unchanged — costs a
// fresh universe-wide block per component here, which is quadratic and
// breaks the budget of less than one such set per spine node.
func TestComputeRelevantRecyclesArenaSets(t *testing.T) {
	const levels = 8000
	prod, space := ladder(levels)
	run := func() { ComputeRelevant(prod, space, nil, prod.P.Output(), false) }
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	setBytes := uint64(space.Size()+63) / 64 * 8
	if got, budget := after.TotalAlloc-before.TotalAlloc, levels*setBytes; got > budget {
		t.Fatalf("ComputeRelevant over %d spine nodes allocated %d bytes, want <= %d "+
			"(one %d-byte relevant set per spine node): interior arena sets are not being recycled",
			levels, got, budget, setBytes)
	}
}

func TestRelSpaceAndNodesOf(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	an := pattern.Analyze(p)
	space := BuildRelSpace(g, p, ci, an)
	// Universe: DB, PRG, ST candidates = 3+4+4 = 11 distinct nodes.
	if space.Size() != 11 {
		t.Fatalf("relevant universe = %d, want 11", space.Size())
	}
	if space.Index(id["PM1"]) != -1 {
		t.Fatal("PM1 must not be in the relevant universe (PM not a descendant of itself)")
	}
	if space.Index(id["DB2"]) < 0 {
		t.Fatal("DB2 missing from relevant universe")
	}
	s := space.NewSet()
	s.Add(int(space.Index(id["DB2"])))
	nodes := space.NodesOf(s)
	if len(nodes) != 1 || nodes[0] != id["DB2"] {
		t.Fatalf("NodesOf = %v", nodes)
	}
}
