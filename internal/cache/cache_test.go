package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := New(2)
	load := func(v string) func() (any, bool, error) {
		return func() (any, bool, error) { return v, false, nil }
	}
	if v, _, _ := c.DoStatus("a", load("va")); v != "va" {
		t.Fatalf("got %v", v)
	}
	c.DoStatus("b", load("vb"))
	c.DoStatus("a", load("never")) // refresh a: b is now the LRU entry
	c.DoStatus("c", load("vc"))    // evicts b
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	// a survived the eviction because the hit on "a" refreshed its recency...
	evals := 0
	c.DoStatus("a", func() (any, bool, error) { evals++; return nil, false, nil })
	if evals != 0 {
		t.Fatal("a should still be cached")
	}
	// ...and b is the entry that went.
	c.DoStatus("b", func() (any, bool, error) { evals++; return "vb2", false, nil })
	if evals != 1 {
		t.Fatalf("b should have been evicted and re-evaluated, evals=%d", evals)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(8)
	const n = 16
	gate := make(chan struct{})
	started := make(chan struct{})
	evals := 0
	var wg sync.WaitGroup
	var once sync.Once
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = c.DoStatus("k", func() (any, bool, error) {
				once.Do(func() { close(started) })
				<-gate
				evals++
				return 42, false, nil
			})
		}(i)
	}
	<-started // the leader is inside fn; let followers pile up, then release
	close(gate)
	wg.Wait()
	if evals != 1 {
		t.Fatalf("evals = %d, want exactly 1", evals)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("caller %d got %v", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", s.Hits+s.Coalesced, n-1)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, _, err := c.DoStatus("k", func() (any, bool, error) { return nil, false, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	evals := 0
	v, _, err := c.DoStatus("k", func() (any, bool, error) { evals++; return "ok", false, nil })
	if err != nil || v != "ok" || evals != 1 {
		t.Fatalf("error was cached: v=%v err=%v evals=%d", v, err, evals)
	}
}

func TestPanickingLoaderDoesNotWedgeKey(t *testing.T) {
	c := New(4)
	started := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		c.DoStatus("k", func() (any, bool, error) {
			close(started)
			<-started // already closed; just a visible ordering point
			panic("boom")
		})
	}()
	<-started
	// A caller coalescing onto the doomed flight must unblock with an
	// error, not hang (we may also race past the flight teardown and become
	// the next leader — either way DoStatus must return).
	go func() {
		_, _, err := c.DoStatus("k", func() (any, bool, error) { return "recovered", false, nil })
		waiterDone <- err
	}()
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("DoStatus wedged after the loader panicked")
	}
	// The key is not poisoned: a fresh evaluation succeeds.
	v, _, err := c.DoStatus("k", func() (any, bool, error) { return "ok", false, nil })
	if err != nil || (v != "ok" && v != "recovered") {
		t.Fatalf("post-panic DoStatus = %v, %v", v, err)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d", j%32)
				v, _, err := c.DoStatus(key, func() (any, bool, error) { return key, false, nil })
				if err != nil || v != key {
					t.Errorf("DoStatus(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPutAdvancedOneShotOutcome pins the advanced-entry lifecycle: an entry
// installed by the commit-time advance pass reports OutcomeAdvanced to
// exactly one caller (the first hit), then decays to a plain warm entry;
// re-advancing the same key re-arms the tag.
func TestPutAdvancedOneShotOutcome(t *testing.T) {
	c := New(4)
	c.PutAdvanced("k", "v1")
	if s := c.Stats(); s.Advanced != 1 || s.Entries != 1 {
		t.Fatalf("stats after PutAdvanced: %+v", s)
	}
	loader := func() (any, bool, error) { t.Fatal("advanced entry must not evaluate"); return nil, false, nil }
	v, out, err := c.DoStatus("k", loader)
	if err != nil || v != "v1" || out != OutcomeAdvanced {
		t.Fatalf("first hit = (%v, %v, %v), want (v1, advanced, nil)", v, out, err)
	}
	if _, out, _ := c.DoStatus("k", loader); out != OutcomeHit {
		t.Fatalf("second hit outcome = %v, want hit", out)
	}
	// Re-advancing refreshes the value and re-arms the one-shot tag.
	c.PutAdvanced("k", "v2")
	v, out, _ = c.DoStatus("k", loader)
	if v != "v2" || out != OutcomeAdvanced {
		t.Fatalf("after re-advance = (%v, %v), want (v2, advanced)", v, out)
	}
}

// TestDoStatusCoalescedMirrorsLeader pins that followers coalescing onto an
// in-flight evaluation report the leader's outcome, a miss, while later,
// post-landing callers report plain hits.
func TestDoStatusCoalescedMirrorsLeader(t *testing.T) {
	c := New(8)
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var leadOut Outcome
	go func() {
		defer wg.Done()
		_, out, _ := c.DoStatus("k", func() (any, bool, error) {
			close(started)
			<-gate
			return "v", false, nil
		})
		leadOut = out
	}()
	<-started
	const followers = 4
	outs := make([]Outcome, followers)
	var fwg sync.WaitGroup
	for i := 0; i < followers; i++ {
		fwg.Add(1)
		go func(i int) {
			defer fwg.Done()
			_, out, _ := c.DoStatus("k", func() (any, bool, error) { return nil, false, errors.New("follower must not evaluate") })
			outs[i] = out
		}(i)
	}
	// Give the followers a moment to park on the flight, then land it.
	for {
		if s := c.Stats(); s.Coalesced == followers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	fwg.Wait()
	if leadOut != OutcomeMiss {
		t.Fatalf("leader outcome = %v, want miss", leadOut)
	}
	for i, out := range outs {
		if out != OutcomeMiss {
			t.Fatalf("follower %d outcome = %v, want the leader's miss", i, out)
		}
	}
	if _, out, _ := c.DoStatus("k", func() (any, bool, error) { return nil, false, nil }); out != OutcomeHit {
		t.Fatalf("post-landing outcome = %v, want hit", out)
	}
}
