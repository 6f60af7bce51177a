package simulation

import (
	"math/rand"
	"reflect"
	"testing"

	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
	"divtopk/internal/testutil/racedetect"
)

// TestProductMatchesReferenceAdjacency pins the CSR product to the on-the-fly
// reference adjacency: same successors, per slot, in the same order; and a
// reverse CSR that is its exact transpose with correct absolute slots.
func TestProductMatchesReferenceAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(16)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n), labels)
		p := testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(5), labels, trial%2 == 0)
		ci := BuildCandidates(g, p)
		prod := BuildProduct(g, p, ci, 0)

		adj := productAdjReference(g, p, ci, nil)
		for q := int32(0); q < int32(ci.NumPairs()); q++ {
			var want []int32
			adj(q, func(w int32) { want = append(want, w) })
			got := prod.Succs(q)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(want, append([]int32(nil), got...)) {
				t.Fatalf("trial %d: Succs(%d) = %v, want %v", trial, q, got, want)
			}
			// Per-slot grouping must agree with the per-query-edge scan.
			u := int(ci.U[q])
			i := 0
			for j := range p.Out(u) {
				for _, w := range prod.SlotSuccs(q, j) {
					if want[i] != w {
						t.Fatalf("trial %d: slot %d of pair %d misgrouped", trial, j, q)
					}
					i++
				}
			}
		}

		// Reverse transpose check: every fwd edge appears exactly once in
		// the target's reverse list with the correct absolute slot.
		type edge struct{ from, to, slot int32 }
		var fwdEdges, revEdges []edge
		for q := int32(0); q < int32(ci.NumPairs()); q++ {
			for s := prod.Base[q]; s < prod.Base[q+1]; s++ {
				for e := prod.SlotOff[s]; e < prod.SlotOff[s+1]; e++ {
					fwdEdges = append(fwdEdges, edge{q, prod.Fwd[e], s})
				}
			}
			for e := prod.RevOff[q]; e < prod.RevOff[q+1]; e++ {
				revEdges = append(revEdges, edge{prod.Rev[e], q, prod.RevSlot[e]})
			}
		}
		count := map[edge]int{}
		for _, e := range fwdEdges {
			count[e]++
		}
		for _, e := range revEdges {
			count[e]--
		}
		for e, c := range count {
			if c != 0 {
				t.Fatalf("trial %d: fwd/rev mismatch at %+v (count %d)", trial, e, c)
			}
		}
	}
}

// TestComputeWithProductMatchesReference checks the refinement fixpoint and
// the relevant sets of the CSR kernel against the frozen reference kernel on
// random inputs.
func TestComputeWithProductMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(16)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n), labels)
		var p *pattern.Pattern
		if trial%3 == 0 {
			p = testutil.NonRootPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		} else {
			p = testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		}
		ci := BuildCandidates(g, p)
		prod := BuildProduct(g, p, ci, 1+trial%4)

		ref := ComputeReference(g, p, ci)
		got := ComputeWithProduct(prod)
		if ref.Matched != got.Matched || !reflect.DeepEqual(ref.InSim, got.InSim) {
			t.Fatalf("trial %d: refinement diverges from reference\npattern=%s", trial, p)
		}

		an := pattern.Analyze(p)
		space := BuildRelSpace(g, p, ci, an)
		root := p.Output()
		for _, alive := range [][]bool{nil, got.InSim} {
			want := ComputeRelevantReference(g, p, ci, an, space, alive, root, true)
			have := ComputeRelevant(prod, space, alive, root, true)
			if !reflect.DeepEqual(want.Sizes, have.Sizes) {
				t.Fatalf("trial %d: relevant sizes diverge\nref %v\ncsr %v\npattern=%s",
					trial, want.Sizes, have.Sizes, p)
			}
			for i := range want.Sets {
				if (want.Sets[i] == nil) != (have.Sets[i] == nil) {
					t.Fatalf("trial %d: set presence diverges at %d", trial, i)
				}
				if want.Sets[i] != nil && !want.Sets[i].Equal(have.Sets[i]) {
					t.Fatalf("trial %d: set %d diverges: ref %s csr %s", trial, i, want.Sets[i], have.Sets[i])
				}
			}
		}
	}
}

// TestProductTraversalZeroAlloc locks in the point of the materialized CSR:
// walking every forward and reverse product edge allocates nothing.
func TestProductTraversalZeroAlloc(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race runtime instruments allocations")
	}
	g, _ := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	prod := BuildProduct(g, p, ci, 0)
	if prod.NumEdges() == 0 {
		t.Fatal("fixture product has no edges")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sum := int32(0)
		for q := int32(0); q < int32(prod.NumPairs()); q++ {
			for _, w := range prod.Succs(q) {
				sum += w
			}
			for e := prod.RevOff[q]; e < prod.RevOff[q+1]; e++ {
				sum += prod.Rev[e] + prod.RevSlot[e]
			}
		}
		if sum == -1 {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("product traversal allocates %.1f per run, want 0", allocs)
	}
}

// TestProductKernelAllocRegression keeps the new kernel's allocation count
// strictly below the reference's: the arena and the materialized adjacency
// must pay for themselves. (The product build is included on the CSR side.)
func TestProductKernelAllocRegression(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race runtime instruments allocations")
	}
	rng := rand.New(rand.NewSource(41))
	labels := []string{"a", "b"}
	g := testutil.RandomGraph(rng, 400, 1600, labels)
	var p *pattern.Pattern
	for {
		p = testutil.RandomPattern(rng, 3, 4, labels, true)
		if Compute(g, p).Matched {
			break
		}
	}
	ci := BuildCandidates(g, p)
	an := pattern.Analyze(p)
	space := BuildRelSpace(g, p, ci, an)

	refAllocs := testing.AllocsPerRun(10, func() {
		res := ComputeReference(g, p, ci)
		ComputeRelevantReference(g, p, ci, an, space, res.InSim, p.Output(), false)
	})
	csrAllocs := testing.AllocsPerRun(10, func() {
		prod := BuildProduct(g, p, ci, 0)
		res := ComputeWithProduct(prod)
		ComputeRelevant(prod, space, res.InSim, p.Output(), false)
	})
	if csrAllocs*2 > refAllocs {
		t.Fatalf("CSR kernel allocates %.0f per query, reference %.0f; want at least a 2x reduction",
			csrAllocs, refAllocs)
	}
}
