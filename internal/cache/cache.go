// Package cache provides the query-result cache behind Matcher sessions and
// the serving daemon: a fixed-capacity LRU keyed by canonical query
// fingerprints, with singleflight admission so that N concurrent identical
// queries cost exactly one evaluation and share its result. Every engine in
// this module is deterministic, which is what makes result caching sound: a
// cached value is indistinguishable from a fresh evaluation.
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a snapshot of cache activity. Misses counts admitted
// evaluations — each miss runs the loader exactly once — while Coalesced
// counts callers that piggybacked on an evaluation already in flight and
// Hits counts callers served from a stored entry. Hits + Misses + Coalesced
// equals the number of DoStatus calls. Advanced counts entries installed
// by the commit-time advance pass (PutAdvanced).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Advanced  uint64
	Entries   int
}

// Outcome describes how one DoStatus call was served; the serving layer
// reports it verbatim in query responses.
type Outcome string

const (
	// OutcomeHit: served from a stored entry.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: the caller (or the leader it coalesced on) ran the loader.
	OutcomeMiss Outcome = "miss"
	// OutcomeAdvanced: served from an entry the commit-time advance pass
	// installed, on its first hit since installation (later hits decay to
	// OutcomeHit — the entry is then just a warm entry).
	OutcomeAdvanced Outcome = "advanced"
)

// entry is one stored key/value pair; list elements carry *entry. advanced
// marks an entry installed by PutAdvanced and is cleared on its first hit,
// so exactly one caller observes OutcomeAdvanced per advance.
type entry struct {
	key      string
	val      any
	advanced bool
}

// flight is one in-progress evaluation that followers wait on.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a fixed-capacity LRU with singleflight admission, safe for
// concurrent use. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *entry
	inflight map[string]*flight
	stats    Stats
}

// New returns a cache holding at most capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// DoStatus returns the value stored under key, evaluating fn on a miss. At
// most one evaluation per key runs at a time: concurrent callers of a
// missing key block until the leader's fn returns, then share its result. A
// successful value is stored (evicting the least recently used entry past
// capacity); an error is delivered to the leader and every waiter but is
// not cached, so the next caller retries. The call returns how it was
// served (hit, miss or advanced); coalesced callers report a miss, as their
// leader does. The loader's bool result is ignored; it stays until the tracked
// benchmark, which passes such a loader, stops doing so.
func (c *Cache) DoStatus(key string, fn func() (any, bool, error)) (any, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		en := el.Value.(*entry)
		out := OutcomeHit
		if en.advanced {
			out = OutcomeAdvanced
			en.advanced = false
		}
		v := en.val
		c.mu.Unlock()
		return v, out, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, OutcomeMiss, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	// If fn panics, fail the flight instead of leaving it registered: the
	// waiters unblock with an error, the key stays uncached so the next
	// caller retries, and the panic propagates to the leader.
	settled := false
	defer func() {
		if settled {
			return
		}
		f.val, f.err = nil, fmt.Errorf("cache: evaluation of key %q panicked", key)
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()

	f.val, _, f.err = fn()
	settled = true

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.store(key, f.val, false)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

// PutAdvanced installs an entry produced by the commit-time advance pass:
// the stored value is byte-identical to what a cold evaluation under key
// would produce, so it is admitted directly. The entry's first hit reports
// OutcomeAdvanced; later hits are ordinary hits.
func (c *Cache) PutAdvanced(key string, val any) {
	c.mu.Lock()
	c.stats.Advanced++
	c.store(key, val, true)
	c.mu.Unlock()
}

// store inserts or refreshes key under the lock, evicting past capacity.
func (c *Cache) store(key string, val any, advanced bool) {
	if el, ok := c.items[key]; ok {
		en := el.Value.(*entry)
		en.val = val
		en.advanced = advanced
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, advanced: advanced})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
