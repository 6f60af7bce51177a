package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if !s.Add(0) || !s.Add(63) || !s.Add(64) || !s.Add(129) {
		t.Fatal("Add of fresh elements should return true")
	}
	if s.Add(63) {
		t.Fatal("Add of existing element should return false")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Fatal("Contains reported absent element")
	}
	if !s.Remove(64) || s.Remove(64) {
		t.Fatal("Remove semantics wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("Count after remove = %d, want 3", s.Count())
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("Clear did not empty the set")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(10).Add(10)
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Count() != 0 || s.Len() != 0 {
		t.Fatal("zero-capacity set misbehaves")
	}
	if Jaccard(s, New(0)) != 1 {
		t.Fatal("Jaccard of empty sets should be 1")
	}
}

func TestSliceAndForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	s.ForEach(func(int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ForEach early stop visited %d, want 3", n)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(7)
	if got := s.String(); got != "{1 7}" {
		t.Fatalf("String = %q, want {1 7}", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("String = %q, want {}", got)
	}
}

// ref is a map-based reference implementation used by the property tests.
type ref map[int]bool

func refFrom(xs []int, n int) (ref, *Set) {
	r := ref{}
	s := New(n)
	for _, x := range xs {
		i := ((x % n) + n) % n
		r[i] = true
		s.Add(i)
	}
	return r, s
}

func TestQuickAgainstMapReference(t *testing.T) {
	const n = 257
	f := func(axs, bxs []int) bool {
		ra, sa := refFrom(axs, n)
		rb, sb := refFrom(bxs, n)

		if sa.Count() != len(ra) {
			return false
		}
		inter, union := 0, map[int]bool{}
		for i := range ra {
			union[i] = true
			if rb[i] {
				inter++
			}
		}
		for i := range rb {
			union[i] = true
		}
		if sa.IntersectCount(sb) != inter || sa.UnionCount(sb) != len(union) {
			return false
		}

		wantJ := 1.0
		if len(union) > 0 {
			wantJ = float64(inter) / float64(len(union))
		}
		if Jaccard(sa, sb) != wantJ {
			return false
		}

		// UnionWith matches union; changed flag matches growth.
		c := sa.Clone()
		changed := c.UnionWith(sb)
		if (c.Count() != sa.Count()) != changed || c.Count() != len(union) {
			return false
		}
		// DifferenceWith against the reference.
		cd := sa.Clone()
		cd.DifferenceWith(sb)
		if cd.Count() != len(ra)-inter {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqualIndependence(t *testing.T) {
	f := func(xs []int) bool {
		_, s := refFrom(append(xs, 1), 100)
		c := s.Clone()
		if !c.Equal(s) || !s.Equal(c) {
			return false
		}
		c.Add(99)
		c.Remove(1)
		// s must be unaffected by mutations of the clone.
		return s.Contains(1) && (s.Contains(99) == containsOrig(xs, 99))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func containsOrig(xs []int, want int) bool {
	for _, x := range xs {
		if ((x%100)+100)%100 == want {
			return true
		}
	}
	return false
}

func TestCopyFrom(t *testing.T) {
	a := New(70)
	a.Add(5)
	b := New(70)
	b.Add(69)
	a.CopyFrom(b)
	if a.Contains(5) || !a.Contains(69) {
		t.Fatal("CopyFrom did not overwrite")
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("sets of different capacity must not be Equal")
	}
}

func BenchmarkUnionWith(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, t := New(1<<16), New(1<<16)
	for i := 0; i < 4096; i++ {
		s.Add(rng.Intn(1 << 16))
		t.Add(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UnionWith(t)
	}
}

func BenchmarkJaccard(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s, t := New(1<<16), New(1<<16)
	for i := 0; i < 4096; i++ {
		s.Add(rng.Intn(1 << 16))
		t.Add(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(s, t)
	}
}
