// Package bitset provides a fixed-capacity dense bit set used to represent
// relevant sets and candidate memberships over compact node-id spaces.
//
// The algorithms of the paper manipulate relevant sets R(u,v) with three
// operations that dominate the running time: union (relevance propagation),
// intersection/union cardinality (the Jaccard distance δd), and membership.
// A dense word-packed representation makes each of them a linear scan over
// 64-bit words, which is what the complexity analysis of the paper assumes
// for its set operations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe [0, Len()).
// The zero value is an empty set of capacity 0; use New to create one with a
// non-zero capacity. Sets of different capacities must not be combined.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n bits. n must be >= 0.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the capacity of the set (the size of its universe), not the
// number of elements; see Count for the latter.
func (s *Set) Len() int { return s.n }

// Add inserts i and reports whether it was newly added.
func (s *Set) Add(i int) bool {
	s.check(i)
	return AddBit(s.words, i)
}

// Remove deletes i and reports whether it was present.
func (s *Set) Remove(i int) bool {
	s.check(i)
	w, b := i/wordBits, uint(i%wordBits)
	old := s.words[w]
	s.words[w] = old &^ (1 << b)
	return old&(1<<b) != 0
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int { return CountWords(s.words) }

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	s.compat(t)
	return UnionWords(s.words, t.words)
}

// IntersectCount returns |s ∩ t| without materializing the intersection.
func (s *Set) IntersectCount(t *Set) int {
	s.compat(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for each element in ascending order. If f returns false the
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachWord calls f for every nonzero 64-bit word with its word index,
// in ascending order. Callers projecting sparse sets (few set bits in a
// wide universe) use it to build compact word lists for repeated pairwise
// operations.
func (s *Set) ForEachWord(f func(i int, w uint64)) {
	for i, w := range s.words {
		if w != 0 {
			f(i, w)
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{a b c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Jaccard returns |a ∩ b| / |a ∪ b|, the similarity underlying the paper's
// distance function δd = 1 − Jaccard. Two empty sets are identical, so their
// Jaccard similarity is defined as 1 (and δd as 0), matching the paper's
// reading that matches with equal (empty) impact are indistinguishable.
//
// Both cardinalities come out of one pass over the words: the distance
// matrix of the diversified algorithms is the hottest consumer of full-width
// scans.
func Jaccard(a, b *Set) float64 {
	a.compat(b)
	inter, union := 0, 0
	bw := b.words[:len(a.words)]
	for i, w := range a.words {
		inter += bits.OnesCount64(w & bw[i])
		union += bits.OnesCount64(w | bw[i])
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *Set) compat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}
