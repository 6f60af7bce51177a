package simulation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// randomDynGraph builds a random labeled graph for the delta fuzz.
func randomDynGraph(rng *rand.Rand, n, m, labels int, dict *graph.Dict) *graph.Graph {
	b := graph.NewBuilderWithDict(dict)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)), nil)
	}
	for i := 0; i < m; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// randomDynPattern builds a small random pattern over the same label space.
func randomDynPattern(rng *rand.Rand, labels int) *pattern.Pattern {
	p := pattern.New()
	nq := 2 + rng.Intn(3)
	for i := 0; i < nq; i++ {
		p.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for tries := 0; tries < 2*nq; tries++ {
		_ = p.AddEdge(rng.Intn(nq), rng.Intn(nq))
	}
	_ = p.SetOutput(rng.Intn(nq))
	return p
}

// randomDelta mines a random delta against g: node appends (sometimes with a
// label the dictionary has not seen), edge inserts (possibly duplicates or
// incident to appended nodes), and deletes of existing edges.
func randomDelta(rng *rand.Rand, g *graph.Graph, labels int) *graph.Delta {
	var d graph.Delta
	n := g.NumNodes()
	for a := rng.Intn(3); a > 0; a-- {
		d.AddNode(fmt.Sprintf("L%d", rng.Intn(labels+1)), nil)
	}
	nNew := n + len(d.NodeAppends)
	for a := rng.Intn(8); a > 0; a-- {
		d.InsertEdge(graph.NodeID(rng.Intn(nNew)), graph.NodeID(rng.Intn(nNew)))
	}
	// Collect up to a few existing edges to delete (not also inserted above:
	// delete-then-insert is legal but makes the delta a no-op for them).
	del := rng.Intn(4)
	for v := graph.NodeID(0); v < graph.NodeID(n) && del > 0; v++ {
		for _, w := range g.Out(v) {
			if rng.Intn(10) != 0 {
				continue
			}
			skip := false
			for _, e := range d.EdgeInserts {
				if e == [2]graph.NodeID{v, w} {
					skip = true
					break
				}
			}
			if !skip {
				d.DeleteEdge(v, w)
				del--
				if del == 0 {
					break
				}
			}
		}
	}
	return &d
}

// assertProductsEqual compares every array of two product CSRs.
func assertProductsEqual(t *testing.T, label string, got, want *Product) {
	t.Helper()
	if !reflect.DeepEqual(got.Base, want.Base) {
		t.Fatalf("%s: Base differs", label)
	}
	if !reflect.DeepEqual(got.SlotOff, want.SlotOff) {
		t.Fatalf("%s: SlotOff differs\ngot  %v\nwant %v", label, got.SlotOff, want.SlotOff)
	}
	if !reflect.DeepEqual(got.Fwd, want.Fwd) {
		t.Fatalf("%s: Fwd differs\ngot  %v\nwant %v", label, got.Fwd, want.Fwd)
	}
	if !reflect.DeepEqual(got.RevOff, want.RevOff) || !reflect.DeepEqual(got.Rev, want.Rev) || !reflect.DeepEqual(got.RevSlot, want.RevSlot) {
		t.Fatalf("%s: reverse CSR differs", label)
	}
}

// assertCandidatesEqual compares two candidate indexes.
func assertCandidatesEqual(t *testing.T, label string, got, want *CandidateIndex) {
	t.Helper()
	if !reflect.DeepEqual(got.Offsets, want.Offsets) {
		t.Fatalf("%s: Offsets %v vs %v", label, got.Offsets, want.Offsets)
	}
	if !reflect.DeepEqual(got.Lists, want.Lists) {
		t.Fatalf("%s: Lists %v vs %v", label, got.Lists, want.Lists)
	}
	if !reflect.DeepEqual(got.U, want.U) || !reflect.DeepEqual(got.V, want.V) {
		t.Fatalf("%s: pair arrays differ", label)
	}
	// pos tables are prefix tables: one may stop short of the node count when
	// the nodes past its end are appended non-candidates (IncCompute's
	// untouched path does not regrow them), so the tails must be zero and the
	// common prefixes equal — every Pair lookup agrees.
	for u := range want.pos {
		g, w := got.pos[u], want.pos[u]
		if len(g) > len(w) {
			g, w = w, g
		}
		if !reflect.DeepEqual(g, w[:len(g)]) || slices.IndexFunc(w[len(g):], func(p int32) bool { return p != 0 }) >= 0 {
			t.Fatalf("%s: pos table of query node %d differs", label, u)
		}
	}
}

// TestIncComputeDeltaSequenceFuzz is the delta-equivalence fuzz of the
// dynamic-graph subsystem: for every seed, a random (graph, pattern) start
// state advances through a sequence of random deltas, and after every step
// the incrementally maintained candidate index, product CSR and simulation
// fixpoint must be identical to a from-scratch evaluation of the new
// snapshot — under the adaptive path (default ratio; on ErrIncFallback it
// rebuilds with NewIncState, as the matcher evicts and re-admits) and a
// forced incremental path (ratio 1), which must agree with each other too.
// At every step a call whose ratio trips (1e-9 on a touched delta) must
// return (nil, ErrIncFallback), NoFallback unset.
func TestIncComputeDeltaSequenceFuzz(t *testing.T) {
	const labels = 4
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trips := 0
			rng := rand.New(rand.NewSource(seed))
			dict := graph.NewDict()
			g := randomDynGraph(rng, 24+rng.Intn(30), 90+rng.Intn(120), labels, dict)
			p := randomDynPattern(rng, labels)

			inc := NewIncState(g, p, 0)    // adaptive (default ratio)
			forced := NewIncState(g, p, 0) // never trips
			for step := 0; step < 10; step++ {
				d := randomDelta(rng, g, labels)
				gNew, err := graph.ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				tripped, tstats, err := IncCompute(inc, gNew, d, IncOptions{RecomputeRatio: 1e-9})
				if tstats.TouchedPairs > 0 {
					if tripped != nil || !errors.Is(err, ErrIncFallback) {
						t.Fatalf("step %d: tripped ratio returned (%v, %v), want (nil, ErrIncFallback)", step, tripped, err)
					}
					trips++
				} else if err != nil {
					t.Fatalf("step %d: untouched delta: %v", step, err)
				}
				inc, _, err = IncCompute(inc, gNew, d, IncOptions{})
				if errors.Is(err, ErrIncFallback) {
					inc = NewIncState(gNew, p, 0)
				} else if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				forced, _, err = IncCompute(forced, gNew, d, IncOptions{RecomputeRatio: 1})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				label := fmt.Sprintf("step %d", step)
				freshCI := BuildCandidates(gNew, p)
				assertCandidatesEqual(t, label, inc.CI, freshCI)
				freshProd := BuildProduct(gNew, p, freshCI, 0)
				assertProductsEqual(t, label, inc.Prod, freshProd)
				freshRes := ComputeWithProduct(freshProd)
				if !reflect.DeepEqual(inc.Res.InSim, freshRes.InSim) || inc.Res.Matched != freshRes.Matched {
					t.Fatalf("%s: fixpoint differs (matched %v vs %v)", label, inc.Res.Matched, freshRes.Matched)
				}
				// The reference kernel agrees as well (both kernels).
				refRes := ComputeReference(gNew, p, freshCI)
				if !reflect.DeepEqual(inc.Res.InSim, refRes.InSim) || inc.Res.Matched != refRes.Matched {
					t.Fatalf("%s: reference kernel disagrees", label)
				}
				// The forced-incremental state agrees with the adaptive one on
				// everything, counters included (both carry valid alive-pair
				// counters into the next step).
				if !reflect.DeepEqual(forced.Res.InSim, inc.Res.InSim) {
					t.Fatalf("step %d: forced and adaptive paths disagree", step)
				}
				assertProductsEqual(t, fmt.Sprintf("step %d forced", step), forced.Prod, inc.Prod)
				// Alive pairs must carry identical settled counters on both
				// paths (dead pairs' counters are documented garbage).
				for q := 0; q < len(inc.Res.InSim); q++ {
					if !inc.Res.InSim[q] {
						continue
					}
					for s := inc.Prod.Base[q]; s < inc.Prod.Base[q+1]; s++ {
						if inc.cnt[s] != forced.cnt[s] {
							t.Fatalf("step %d: counter drift at pair %d slot %d: %d / %d",
								step, q, s, inc.cnt[s], forced.cnt[s])
						}
					}
				}
				g = gNew
			}
			if trips == 0 {
				t.Fatal("no step tripped the ratio")
			}
		})
	}
}

// TestIncComputeRejectsMismatchedGraph pins the guard: gNew must be the
// snapshot the delta produces from the state's graph.
func TestIncComputeRejectsMismatchedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict := graph.NewDict()
	g := randomDynGraph(rng, 10, 30, 3, dict)
	p := randomDynPattern(rng, 3)
	st := NewIncState(g, p, 0)
	var d graph.Delta
	d.AddNode("L0", nil)
	if _, _, err := IncCompute(st, g, &d, IncOptions{}); err == nil {
		t.Fatal("IncCompute accepted a graph whose node count does not match the delta")
	}
}

// reaches reports whether target is reachable from root through pointers,
// slices, arrays, structs, maps and interfaces, unexported fields included.
// Pointers in stop are not entered.
func reaches(root any, target unsafe.Pointer, stop ...unsafe.Pointer) bool {
	seen := map[unsafe.Pointer]bool{}
	for _, p := range stop {
		seen[p] = true
	}
	var walk func(v reflect.Value) bool
	walk = func(v reflect.Value) bool {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return false
			}
			p := v.UnsafePointer()
			if p == target {
				return true
			}
			if seen[p] {
				return false
			}
			seen[p] = true
			return walk(v.Elem())
		case reflect.Interface:
			return !v.IsNil() && walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if walk(v.Field(i)) {
					return true
				}
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					if walk(v.Index(i)) {
						return true
					}
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				if walk(it.Key()) || walk(it.Value()) {
					return true
				}
			}
		}
		return false
	}
	return walk(reflect.ValueOf(root))
}

// TestIncComputeUntouchedShortcut holds the untouched shortcut of IncCompute
// to the path it skips: over the delta-sequence fuzz's own generators — at its
// label count, where most deltas reach the pattern, and at a sparser one,
// where most miss it — every step's state must equal, array for array, what
// incAdvance alone makes of the same delta and what NewIncState builds from
// scratch on the new snapshot (candidates, product, fixpoint, the settled
// counters of alive pairs), the two must agree on TouchedPairs, and a state
// that took the shortcut must share its predecessor's arrays while holding no
// path back to the superseded graph. The chain continues from the shortcut's
// states, so their short pos tables feed the later advances.
func TestIncComputeUntouchedShortcut(t *testing.T) {
	shortcuts := 0
	for _, labels := range []int{4, 16} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			dict := graph.NewDict()
			g := randomDynGraph(rng, 24+rng.Intn(30), 90+rng.Intn(120), labels, dict)
			p := randomDynPattern(rng, labels)
			st := NewIncState(g, p, 0)
			for step := 0; step < 10; step++ {
				label := fmt.Sprintf("labels %d seed %d step %d", labels, seed, step)
				d := randomDelta(rng, g, labels)
				gNew, err := graph.ApplyDelta(g, d)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				opts := IncOptions{RecomputeRatio: 1}
				fast, fstats, err := IncCompute(st, gNew, d, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				slow, sstats, err := incAdvance(st, gNew, d, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if fstats.TouchedPairs != sstats.TouchedPairs || fstats.TotalPairs != sstats.TotalPairs {
					t.Fatalf("%s: stats %+v, the full path's %+v", label, fstats, sstats)
				}
				fresh := NewIncState(gNew, p, 0)
				for _, want := range []*IncState{slow, fresh} {
					assertCandidatesEqual(t, label, fast.CI, want.CI)
					assertProductsEqual(t, label, fast.Prod, want.Prod)
					if !reflect.DeepEqual(fast.Res.InSim, want.Res.InSim) || fast.Res.Matched != want.Res.Matched {
						t.Fatalf("%s: fixpoint differs", label)
					}
					for q, alive := range fast.Res.InSim {
						if alive && !reflect.DeepEqual(fast.cnt[fast.Prod.Base[q]:fast.Prod.Base[q+1]], want.cnt[want.Prod.Base[q]:want.Prod.Base[q+1]]) {
							t.Fatalf("%s: counters of alive pair %d differ", label, q)
						}
					}
				}
				if fast.G != gNew || fast.Prod.G != gNew || fast.Prod.CI != fast.CI || fast.Res.CI != fast.CI {
					t.Fatalf("%s: state is not wired to the new snapshot", label)
				}
				if fstats.TouchedPairs == 0 && fstats.TotalPairs > 0 && d.Size() > 0 {
					shortcuts++
					if fast.CI != st.CI || fast.Res != st.Res || &fast.Prod.Base[0] != &st.Prod.Base[0] {
						t.Fatalf("%s: an untouched delta rebuilt the state", label)
					}
					if reaches(fast, unsafe.Pointer(g), unsafe.Pointer(gNew)) {
						t.Fatalf("%s: the carried state still references the superseded graph", label)
					}
				}
				g, st = gNew, fast
			}
		}
	}
	if shortcuts < 20 {
		t.Fatalf("only %d steps took the untouched shortcut: the fuzz no longer exercises it", shortcuts)
	}
}
