package bitset

import (
	"math"
	"math/rand"
	"testing"
)

// twoPassJaccard is the form Jaccard had before it fused the two scans.
func twoPassJaccard(a, b *Set) float64 {
	inter := a.IntersectCount(b)
	u := a.Count() + b.Count() - inter
	if u == 0 {
		return 1
	}
	return float64(inter) / float64(u)
}

func TestJaccardMatchesTwoPassForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(700)
		a, b := New(n), New(n)
		// Densities from empty to full, independently per side, so empty,
		// disjoint, nested and equal pairs all occur.
		pa, pb := rng.Float64()*rng.Float64(), rng.Float64()*rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < pa {
				a.Add(i)
			}
			if rng.Float64() < pb {
				b.Add(i)
			}
		}
		if trial%7 == 0 {
			a.ForEach(func(i int) bool { b.Remove(i); return true }) // force disjoint
		}
		got, want := Jaccard(a, b), twoPassJaccard(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Jaccard = %v, two-pass form = %v", n, got, want)
		}
		if back := Jaccard(b, a); math.Float64bits(back) != math.Float64bits(got) {
			t.Fatalf("n=%d: Jaccard not symmetric: %v vs %v", n, got, back)
		}
		if a.IntersectCount(b) == 0 && !(a.Empty() && b.Empty()) && got != 0 {
			t.Fatalf("disjoint sets: Jaccard = %v, want 0", got)
		}
	}
	if got := Jaccard(New(130), New(130)); got != 1 {
		t.Fatalf("Jaccard(∅,∅) = %v, want 1", got)
	}
	if got := Jaccard(New(0), New(0)); got != 1 {
		t.Fatalf("Jaccard over the empty universe = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Jaccard of sets with different capacities did not panic")
		}
	}()
	Jaccard(New(64), New(128))
}

func TestWordOpsMatchSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
			}
			if rng.Intn(5) == 0 {
				b.Add(i)
			}
		}
		ref := a.Clone()
		wantChanged := ref.UnionWith(b)
		if got := UnionWords(a.Words(), b.Words()); got != wantChanged || !a.Equal(ref) {
			t.Fatalf("UnionWords: changed=%v want %v, equal=%v", got, wantChanged, a.Equal(ref))
		}
		if UnionWords(a.Words(), b.Words()) {
			t.Fatal("second UnionWords reported a change")
		}
		i := rng.Intn(n)
		if got, want := AddBit(a.Words(), i), ref.Add(i); got != want || !a.Equal(ref) {
			t.Fatalf("AddBit(%d) = %v, Set.Add = %v", i, got, want)
		}
		if got := CountWords(a.Words()); got != ref.Count() {
			t.Fatalf("CountWords = %d, Count = %d", got, ref.Count())
		}
	}
}

func TestSlabRecyclesAndZeroes(t *testing.T) {
	var s Slab
	fill := func(w []uint64) {
		for i := range w {
			w[i] = ^uint64(0)
		}
	}
	// Widths below, at and above the default chunk length; narrowing back
	// must not resurrect stale contents either.
	for _, bits := range []int{0, 1, 64, 1000, slabChunkWords*64 + 1, 1000, 15_000} {
		s.Reset(bits)
		width := (bits + 63) / 64
		var handles []int32
		for i := 0; i < 100; i++ {
			h := s.Alloc()
			w := s.At(h)
			if len(w) != width || cap(w) != width {
				t.Fatalf("bits=%d: block has len %d cap %d, want %d", bits, len(w), cap(w), width)
			}
			for _, x := range w {
				if x != 0 {
					t.Fatalf("bits=%d: block %d not zeroed", bits, i)
				}
			}
			fill(w)
			handles = append(handles, h)
		}
		// Distinct handles name disjoint blocks: clearing one leaves the
		// others full.
		if width > 0 {
			clear(s.At(handles[50]))
			for i, h := range handles {
				if i != 50 && s.At(h)[0] != ^uint64(0) {
					t.Fatalf("bits=%d: block %d aliased block 50", bits, i)
				}
			}
		}
	}

	// Steady state allocates nothing: the chunks are recycled.
	s.Reset(15_000)
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset(15_000)
		for i := 0; i < 200; i++ {
			fill(s.At(s.Alloc()))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state slab use allocates %v objects per run", allocs)
	}
}
