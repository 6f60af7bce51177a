package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-4); got != runtime.NumCPU() {
		t.Fatalf("Workers(-4) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

func TestShardsCoverRangeExactly(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := -1; k <= 12; k++ {
			shards := Shards(n, k)
			if n <= 0 {
				if shards != nil {
					t.Fatalf("Shards(%d,%d) = %v, want nil", n, k, shards)
				}
				continue
			}
			next := 0
			for _, s := range shards {
				if s[0] != next {
					t.Fatalf("Shards(%d,%d): gap/overlap at %v", n, k, s)
				}
				if s[1] <= s[0] {
					t.Fatalf("Shards(%d,%d): empty shard %v", n, k, s)
				}
				next = s[1]
			}
			if next != n {
				t.Fatalf("Shards(%d,%d): covers [0,%d), want [0,%d)", n, k, next, n)
			}
			if k >= 1 && len(shards) > k {
				t.Fatalf("Shards(%d,%d): %d shards", n, k, len(shards))
			}
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachInlineWhenSequential(t *testing.T) {
	// workers <= 1 must run in index order on the calling goroutine.
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEach out of order: %v", order)
		}
	}
}
