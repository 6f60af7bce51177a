package bitset

import (
	"fmt"
	"math/bits"
)

// Raw word-slice operations. The early-termination engine keeps its interior
// relevant sets as bare word blocks carved from a recycled Slab (no Set
// header, nothing for the collector to scan) and reaches the individually
// allocated output-node sets through Set.Words, so one set of loops serves
// both. A block over a universe of n bits has (n+63)/64 words and keeps the
// bits beyond n zero, exactly like a Set's backing store.

// Words returns the set's backing words. Writes through the slice write the
// set; bits at or beyond Len must stay zero.
func (s *Set) Words() []uint64 { return s.words }

// FromWords wraps words as a set over a universe of n bits without copying:
// words must hold exactly (n+63)/64 words with every bit at or beyond n
// zero, and the set aliases them. The relevant-set kernel hands a finished
// slab block over to a caller this way.
func FromWords(words []uint64, n int) *Set {
	if n < 0 || len(words) != (n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitset: %d words cannot back a set of capacity %d", len(words), n))
	}
	return &Set{words: words, n: n}
}

// UnionWords ORs src into dst (equal lengths) and reports whether dst
// changed.
func UnionWords(dst, src []uint64) bool {
	src = src[:len(dst)]
	changed := false
	for i, w := range src {
		old := dst[i]
		if nw := old | w; nw != old {
			dst[i] = nw
			changed = true
		}
	}
	return changed
}

// AddBit sets bit i of dst and reports whether it was newly set.
func AddBit(dst []uint64, i int) bool {
	w, b := i/wordBits, uint(i%wordBits)
	old := dst[w]
	dst[w] = old | (1 << b)
	return old&(1<<b) == 0
}

// CountWords returns the number of set bits in w.
func CountWords(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// Slab hands out fixed-width zeroed word blocks from chunks it keeps across
// Reset calls: the engine's pooled scratch carves one block per matched
// interior pair, and a recycled chunk costs nothing but the clearing of the
// blocks actually carved (a fresh 64 KiB chunk per ~35 sets was 42 % of a
// query's allocation volume). Blocks are named by an int32 handle — the
// chunk index and the word offset packed together — so the table that maps
// pairs to blocks holds no pointers.
//
// The zero value is ready for Reset. A Slab is not safe for concurrent use.
//
// The engine's scratch holds two: one for the interior pairs' relevant sets
// and one for the working sets of simulation.SweepRelevant, which recycles
// those through its own free list within a sweep.
type Slab struct {
	chunks [][]uint64
	width  int  // words per block
	shift  uint // log2 of the chunk length in words
	next   int  // word offset of the next free block in the last used chunk
	used   int  // chunks in use since Reset
}

// slabChunkWords is the default chunk length in words (64 KiB); chunks
// always hold at least one block.
const slabChunkWords = 8192

// Reset recycles every block and sets the block width for a universe of bits
// elements. Chunks too short for one block are dropped.
func (s *Slab) Reset(bitsN int) {
	if bitsN < 0 {
		panic("bitset: negative slab capacity")
	}
	s.width = (bitsN + wordBits - 1) / wordBits
	shift := uint(bits.Len(uint(slabChunkWords - 1)))
	for 1<<shift < s.width {
		shift++
	}
	if shift != s.shift {
		s.chunks, s.shift = nil, shift
	}
	s.used, s.next = 0, 0
}

// Alloc carves a zeroed block and returns its handle.
func (s *Slab) Alloc() int32 {
	size := 1 << s.shift
	if s.used == 0 || s.next+s.width > size {
		if s.used >= 1<<(31-s.shift) {
			panic("bitset: slab handle space exhausted")
		}
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, make([]uint64, size))
		}
		s.used++
		s.next = 0
	}
	h := int32((s.used-1)<<s.shift | s.next)
	s.next += s.width
	clear(s.At(h))
	return h
}

// At returns the block a handle names; valid until the next Reset.
func (s *Slab) At(h int32) []uint64 {
	off := int(h) & (1<<s.shift - 1)
	return s.chunks[int(h)>>s.shift][off : off+s.width : off+s.width]
}
