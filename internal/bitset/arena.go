package bitset

// Arena is a pool of fixed-width bitsets over one universe, backed by large
// shared word chunks. The relevant-set kernels allocate and drop one bitset
// per product-graph SCC; without pooling that is one []uint64 (plus one Set
// header) per component, and the garbage collector ends up dominating the
// propagation profile. An Arena carves sets out of reusable chunks and keeps
// a free list of returned sets, so the steady state of a propagation sweep —
// Get, union, Put — performs no allocation at all (see the AllocsPerRun
// regression test).
//
// An Arena is NOT safe for concurrent use; parallel propagation allocates
// and releases sets in its sequential phases and only runs the word-level
// union work concurrently (see simulation.ComputeRelevant).
//
// Sets obtained from Get are ordinary *Set values: every in-place operation
// (UnionWith, DifferenceWith, Add, ...) works on them unchanged, and a set
// that must outlive the arena can simply never be Put back (its words keep
// the owning chunk alive) or be detached via Clone.
type Arena struct {
	bits  int // universe size of every set
	words int // words per set
	// cur is the tail of the current chunk; chunks are retained only through
	// the live Sets carved from them, so dropping the whole arena frees
	// everything at once.
	cur []uint64
	// free holds returned sets, cleared and ready for reuse.
	free []*Set
	// chunkWords is the allocation granularity (at least one set).
	chunkWords int
}

// arenaChunkWords is the default chunk size in words (512 KiB of bits);
// chunks always hold at least one full set.
const arenaChunkWords = 8192

// NewArena returns an arena producing sets with capacity for bits elements.
func NewArena(bits int) *Arena {
	if bits < 0 {
		panic("bitset: negative arena capacity")
	}
	w := (bits + wordBits - 1) / wordBits
	cw := arenaChunkWords
	if w > cw {
		cw = w
	}
	return &Arena{bits: bits, words: w, chunkWords: cw}
}

// Get returns an empty set over the arena's universe, reusing a returned set
// when one is available. The caller owns the set until Put. Get performs no
// clearing: freshly carved chunks are zero by construction, and Put requires
// the set to be empty again — callers that track each set's populated word
// span clear exactly that span (ClearRange) instead of the full width, which
// is where the arena's O(span) economics come from.
func (a *Arena) Get() *Set {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return s
	}
	if len(a.cur) < a.words {
		a.cur = make([]uint64, a.chunkWords)
	}
	words := a.cur[:a.words:a.words]
	a.cur = a.cur[a.words:]
	return &Set{words: words, n: a.bits}
}

// Put returns a set to the arena for reuse. The set MUST be empty again (see
// Get) and must not be used after Put. Putting a set that did not come from
// this arena is allowed as long as its capacity matches (its words simply
// join the pool).
func (a *Arena) Put(s *Set) {
	if s == nil {
		return
	}
	if s.n != a.bits {
		panic("bitset: Put of set with foreign capacity")
	}
	a.free = append(a.free, s)
}

// FreeLen reports the number of pooled sets currently available for reuse
// (diagnostics and tests).
func (a *Arena) FreeLen() int { return len(a.free) }
