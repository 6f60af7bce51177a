package divtopk

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"divtopk/internal/cache"
	"divtopk/internal/core"
	"divtopk/internal/graph"
)

// Matcher is a reusable query session over one Graph. Construction warms the
// descendant-label bound index of the paper's §4.1 for every label; TopKDH,
// the one algorithm that reads it, takes its initial upper bounds from it.
// Warming is for concurrency, not speed: the Matcher is then safe for use
// from many goroutines, which read the index warmed and immutable instead of
// waiting on each other's cold label fills. (The index does not make TopKDH
// cheaper than the find-all Match; see core.BoundsCache for the numbers.)
//
// A Matcher also serves dynamic graphs: UpdateWithStats applies a Delta,
// advances the previous snapshot's bound index off to the side — recomputing
// only what the delta's affected area covers instead of rebuilding the index
// per update — and atomically swaps graph and index in together, so
// queries always run against one consistent snapshot (graph + index)
// and never observe a half-applied update. The snapshot version is part of
// every cache key, which makes entries cached against an older snapshot
// unreachable — stale results are never scanned for, let alone served.
//
// Options passed to NewMatcher become the session defaults; options passed
// to an individual query are applied on top of them. With WithCache the
// session additionally memoizes results in an LRU keyed by a canonical
// query fingerprint, with singleflight admission — the serving layer in
// internal/server builds on exactly this.
type Matcher struct {
	// cur is loaded in Graph, run and the commit entry points only.
	cur      atomic.Pointer[Graph]
	updateMu sync.Mutex // serializes commits (queries never take it)
	base     []Option
	// cache is the warm result cache, nil without WithCache.
	cache *warmCache
	// durability, when set, must acknowledge every delta before the snapshot
	// it produced is published; guarded by updateMu like all update state.
	durability DurabilitySink
}

// CacheStats is a snapshot of a Matcher's result-cache counters. Misses
// counts actual engine evaluations; Coalesced counts queries that shared an
// in-flight evaluation (singleflight); Hits counts queries served from a
// stored entry. Advanced counts entries the commit-time advance pass
// installed, and AdvanceEvicted counts maintained pattern states the advance pass evicted instead of
// advancing (work share above the ratio). Carried and Reevaluated split the
// advanced entries by how the pass produced them: carried over because the
// delta provably left their inputs alone, or re-run on the advanced state.
// All counters are zero for a Matcher built without WithCache.
type CacheStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Coalesced      uint64 `json:"coalesced"`
	Evictions      uint64 `json:"evictions"`
	Advanced       uint64 `json:"advanced"`
	AdvanceEvicted uint64 `json:"advance_evicted"`
	Carried        uint64 `json:"carried"`
	Reevaluated    uint64 `json:"reevaluated"`
	Entries        int    `json:"entries"`
}

// NewMatcher builds the session indexes of g and returns a Matcher.
// WithCache sizes the session result cache (default: none).
func NewMatcher(g *Graph, opts ...Option) *Matcher {
	o := buildOptions(opts)
	// Warm the bound index for every label up front: the lazy per-label path
	// is synchronized but serializes cold computations, so a fully warmed
	// cache is what keeps concurrent queries contention-free.
	g.boundsCache().Warm(nil)
	m := &Matcher{base: opts}
	m.cur.Store(g)
	if o.cacheEntries > 0 {
		m.cache = &warmCache{lru: cache.New(o.cacheEntries),
			warm: warmRegistry{entries: make(map[string]*warmEntry)}}
	}
	return m
}

// Graph returns the session's current graph snapshot. After a commit the
// returned snapshot keeps working — it is immutable — but no longer receives
// queries routed through the session.
func (m *Matcher) Graph() *Graph { return m.cur.Load() }

// ErrIndexMaintenance wraps a failure to advance the bound index during a
// commit. The session builds the advance inputs itself, so this is an
// internal invariant violation — a bug — never a problem with the caller's
// delta; the serving layer maps it to a 500, not a 400. Match it with
// errors.Is.
var ErrIndexMaintenance = errors.New("divtopk: bound-index maintenance failed")

// IndexStats describes how one commit (one delta or one group) maintained the
// descendant-label bound index: whether the incremental advance held or the
// adaptive fallback rebuilt the warmed labels, how much of the index the
// delta's frontier actually covered, and what the maintenance cost in wall
// time. The serving layer forwards these on every update response.
type IndexStats struct {
	// Mode is "incremental" (partial recompute of the per-label frontier)
	// or "rebuild" (the fallback recomputed every warmed label).
	Mode string `json:"mode"`
	// BatchWidth is the number of per-request deltas this commit carried:
	// 1 for UpdateWithStats, the group size for UpdateMerged.
	BatchWidth int `json:"batch_width"`
	// AffectedRows is the widest per-label affected row set (the union over
	// the frontier's change groups); TotalRows is the snapshot's node count.
	AffectedRows int `json:"affected_rows"`
	TotalRows    int `json:"total_rows"`
	// AffectedShare is the recomputed cells' share of the whole warmed
	// index — Σ over recomputed labels of their affected rows, divided by
	// warmed labels × TotalRows (1 on a rebuild). This is the quantity the
	// adaptive fallback thresholds; a label the frontier proves untouched
	// contributes nothing.
	AffectedShare float64 `json:"affected_share"`
	// FrontierRows is the union affected-row count of the frontier (equals
	// AffectedRows on the incremental path, TotalRows on a rebuild).
	FrontierRows int `json:"frontier_rows"`
	// LabelsRecomputed and LabelsCopied split the index's labels into the
	// ones whose rows the delta's frontier reaches (recomputed through the
	// partial passes) and the ones proven untouched (rows carried over).
	LabelsRecomputed int `json:"labels_recomputed"`
	LabelsCopied     int `json:"labels_copied"`
	// WallMicros is the wall time of the whole index maintenance step;
	// ShardWallMicros is the wall time of just the per-label section inside
	// it.
	WallMicros      int64 `json:"wall_us"`
	ShardWallMicros int64 `json:"shard_wall_us"`
	// The warm result cache's share of the commit (all zero without
	// WithCache): WarmStates maintained pattern states went through the
	// advance pass, the delta reached a candidate pair of WarmTouched of
	// them, and WarmEvicted were dropped instead of advanced; of the answers
	// riding the surviving states, WarmReevaluated were re-run on the
	// advanced state and WarmCarried carried over unevaluated, because the
	// delta provably left their inputs alone; WarmDropped needed an
	// evaluation and were forgotten instead, because nobody had read what
	// the last commits installed for them. WarmMicros is the wall time of
	// the pass plus the installation of its results.
	WarmStates      int   `json:"warm_states"`
	WarmTouched     int   `json:"warm_touched"`
	WarmReevaluated int   `json:"warm_reevaluated"`
	WarmCarried     int   `json:"warm_carried"`
	WarmDropped     int   `json:"warm_dropped"`
	WarmEvicted     int   `json:"warm_evicted"`
	WarmMicros      int64 `json:"warm_us"`
}

// UpdateWithStats applies d to the session's current snapshot and
// atomically swaps the session to the result, returning the new snapshot
// (its Version is the old one plus 1) and the index-maintenance stats. The
// new snapshot's bound index is advanced from the previous snapshot's off
// to the side — recomputing only the rows and labels the delta's frontier
// covers, one label at a time, with an adaptive fallback to a full
// rebuild past a quarter of the index — and swapped in together with the
// graph, so queries never hit a cold index and never observe a half-applied
// update; queries running concurrently with the update finish on the old
// snapshot (and are cached under the old version, where no future query
// will look them up). A label the delta introduces stays cold and fills
// lazily on first use — eager warming would grow the maintained label set
// without bound on label-churning workloads. Updates are serialized with
// each other; queries are never blocked. On error the session is unchanged.
func (m *Matcher) UpdateWithStats(d *Delta) (*Graph, IndexStats, error) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	return m.commitLocked(m.cur.Load(), &d.d, []*Delta{d})
}

// UpdateMerged is the group-commit entry point: merged must be the Merge of
// parts (in order) against the session's current snapshot, built by a
// caller that is the session's only updater — the serving layer's
// coalescer. It applies merged in one step, advances the index once, logs
// each part separately through the durability sink (one sync), and swaps in
// a snapshot whose version is the current one plus len(parts) — exactly the
// state applying the parts one at a time would have produced, at a fraction
// of the maintenance cost. On error the session is unchanged and no part
// was made durable.
func (m *Matcher) UpdateMerged(merged *Delta, parts []*Delta) (*Graph, IndexStats, error) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	return m.commitLocked(m.cur.Load(), &merged.d, parts)
}

// commitLocked applies one already-merged delta spanning len(parts)
// versions to g and publishes the result. The caller holds updateMu and
// loaded g, the published snapshot, once under it.
func (m *Matcher) commitLocked(g *Graph, merged *graph.Delta, parts []*Delta) (*Graph, IndexStats, error) {
	g2raw, sum, err := graph.ApplyDeltaVersionStep(g.g, merged, uint64(len(parts)))
	if err != nil {
		return nil, IndexStats{}, err
	}
	t0 := time.Now()
	bc, adv, err := g.boundsCache().Advance(g2raw, sum, core.AdvanceOptions{})
	if err != nil {
		// The session built the inputs itself, so a mismatch is a bug, not
		// a bad delta; surface it rather than limping on with a cold index.
		return nil, IndexStats{}, fmt.Errorf("%w: %v", ErrIndexMaintenance, err)
	}
	g2 := &Graph{g: g2raw}
	g2.adoptBounds(bc)
	stats := IndexStats{
		Mode:             adv.Mode(),
		BatchWidth:       len(parts),
		AffectedRows:     adv.AffectedRows,
		TotalRows:        adv.TotalRows,
		AffectedShare:    adv.WorkShare,
		FrontierRows:     adv.FrontierRows,
		LabelsRecomputed: adv.LabelsRecomputed,
		LabelsCopied:     adv.LabelsCopied,
		WallMicros:       time.Since(t0).Microseconds(),
		ShardWallMicros:  adv.ShardWallMicros,
	}
	// The warm result cache advances with the same off-to-the-side
	// discipline as the bound index: maintained per-pattern states are
	// carried to g2 by delta-proportional IncCompute (or evicted past the
	// work-share ratio) and each cached entry the delta can have changed is
	// recomputed from the advanced state — but nothing is installed until
	// the commit is past its last fallible step, because entries keyed to a
	// version that is never published could collide with a later commit's
	// use of the same number.
	t0 = time.Now()
	installWarm := m.cache.advanceWarm(g, g2, merged, &stats)
	stats.WarmMicros = time.Since(t0).Microseconds()
	// Durability is the last fallible step: once the sink acknowledges the
	// deltas the swap below is unconditional, and if it refuses, nothing was
	// published — queries keep seeing the old snapshot, which is exactly the
	// newest durable version. The served state never runs ahead of the WAL.
	// A commit logs one WAL record per part — recovery replays the same
	// per-request chain the acks described — under a single sync.
	if m.durability != nil {
		if err := m.durability.AppendBatch(g2, parts); err != nil {
			return nil, IndexStats{}, fmt.Errorf("%w: %v", ErrDurabilityUnavailable, err)
		}
	}
	// Install the advanced entries before publishing g2: their keys carry
	// g2's version, so they are unreachable until the store below — the
	// first post-commit query already finds them warm.
	t0 = time.Now()
	installWarm()
	stats.WarmMicros += time.Since(t0).Microseconds()
	m.cur.Store(g2)
	return g2, stats, nil
}

// CacheStats returns a snapshot of the session result-cache counters (the
// zero value when the Matcher was built without WithCache).
func (m *Matcher) CacheStats() CacheStats {
	c := m.cache
	if c == nil {
		return CacheStats{}
	}
	s := c.lru.Stats()
	return CacheStats{
		Hits:           s.Hits,
		Misses:         s.Misses,
		Coalesced:      s.Coalesced,
		Evictions:      s.Evictions,
		Advanced:       s.Advanced,
		AdvanceEvicted: c.advanceEvicted.Load(),
		Carried:        c.carried.Load(),
		Reevaluated:    c.reevaluated.Load(),
		Entries:        s.Entries,
	}
}

// queryKey returns the canonical cache key of q on the pattern with
// canonical text text (see patternText) at snapshot g: the shape's identity
// at g's version. The version participates so that entries cached before a
// graph update can never be served after it — stale entries become
// unreachable rather than scanned and age out of the LRU. It is read off the
// snapshot the answer is evaluated on, so key and answer cannot disagree.
func queryKey(q query, g *Graph, text string) string {
	return shapeID(q, text) + "@" + strconv.FormatUint(g.Version(), 10)
}

// shapeID returns the identity of q on the pattern with canonical text text
// across snapshot versions: a hash over the algorithm, k, λ and the text.
func shapeID(q query, text string) string {
	// Field by field: printing a struct with %+v walks it by reflection, on
	// every query, cache hits included.
	sum := sha256.Sum256(fmt.Appendf(nil, "kind=%d|k=%d|lambda=%g\n%s", q.kind, q.k, q.lambda, text))
	return hex.EncodeToString(sum[:])
}

// QueryInfo reports how the session answered one query.
type QueryInfo struct {
	// Version is the graph snapshot version the answer was computed (or
	// cached) against. A query racing a commit is answered consistently by
	// exactly one snapshot, the one whose version is reported.
	Version uint64 `json:"version"`
	// Cache is the result-cache provenance of the answer — "hit", "miss"
	// (evaluated) or "advanced" (served from an entry the commit-time
	// advance pass installed, first hit only) — or "" for a session without
	// WithCache. Queries that coalesced onto an in-flight evaluation report
	// the leader's provenance.
	Cache string `json:"cache,omitempty"`
}

// run answers one query against the current snapshot, loaded once here and
// handed to the cache layer, which has no way to load another: evaluation and
// cache key agree on it even mid-commit. The value is a *Result or
// *DiversifiedResult by q.kind (runAs restores the type), nil on error.
func (m *Matcher) run(p *Pattern, q query) (any, QueryInfo, error) {
	return m.cache.run(m.cur.Load(), p, q)
}

// runAs is run with the answer's static type restored.
func runAs[R any](m *Matcher, p *Pattern, q query) (res R, info QueryInfo, err error) {
	v, info, err := m.run(p, q)
	if err == nil {
		res = v.(R)
	}
	return res, info, err
}

// TopK answers one top-k query on the session; see the package-level TopK.
// Safe to call from multiple goroutines. With WithCache the returned Result
// may be shared with other callers and must be treated as read-only.
func (m *Matcher) TopK(p *Pattern, k int, opts ...Option) (*Result, error) {
	res, _, err := m.TopKInfo(p, k, opts...)
	return res, err
}

// TopKInfo is TopK reporting the per-query provenance (snapshot version and
// cache status) the serving layer surfaces in its responses.
func (m *Matcher) TopKInfo(p *Pattern, k int, opts ...Option) (*Result, QueryInfo, error) {
	return runAs[*Result](m, p, newQuery(false, k, 0, m.base, opts))
}

// TopKDiversified answers one diversified top-k query on the session; see
// the package-level TopKDiversified. Safe to call from multiple goroutines.
// With WithCache the returned DiversifiedResult may be shared with other
// callers and must be treated as read-only.
func (m *Matcher) TopKDiversified(p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, error) {
	res, _, err := m.TopKDiversifiedInfo(p, k, lambda, opts...)
	return res, err
}

// TopKDiversifiedInfo is TopKInfo's diversified counterpart.
func (m *Matcher) TopKDiversifiedInfo(p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, QueryInfo, error) {
	return runAs[*DiversifiedResult](m, p, newQuery(true, k, lambda, m.base, opts))
}
