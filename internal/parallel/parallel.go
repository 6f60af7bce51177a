// Package parallel provides the shared concurrency primitives behind the
// engine's intra-query parallelism: a worker normalization rule,
// deterministic range sharding and a dynamic-scheduling parallel for-loop.
//
// Every helper degrades to plain inline execution when asked for a single
// worker, so sequential behavior (Parallelism(1)) runs exactly the code it
// ran before this package existed — no goroutines, no channels, no
// scheduling jitter.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism setting: n >= 1 is returned unchanged,
// anything else (zero value, negatives) means "use all cores" and returns
// runtime.NumCPU().
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Shards splits the range [0, n) into at most k contiguous, non-empty,
// near-equal half-open intervals, in ascending order. It returns nil when
// n <= 0. Sharding is deterministic: the same (n, k) always yields the same
// intervals, which is what keeps parallel candidate computation bit-for-bit
// identical to the sequential scan after concatenation.
func Shards(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// ForEach invokes fn(i) once for every i in [0, n), spreading iterations
// over at most workers goroutines with dynamic scheduling (an atomic
// counter), so uneven per-iteration costs still balance. With workers <= 1
// or n <= 1 it runs inline in index order. fn must be safe to call from
// multiple goroutines; iteration order is otherwise unspecified. ForEach
// returns only after every iteration has completed.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
