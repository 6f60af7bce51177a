package divtopk

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"divtopk/internal/cache"
	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/simulation"
)

// This file is the warm result cache: the machinery that turns the session
// cache's "invalidate on commit" into "advance on commit". A hot pattern
// keeps its incremental evaluation state (simulation.IncState: candidate
// index, product CSR, settled fixpoint) in a registry beside the result
// cache, and both evaluations of that pattern — the cache-miss loader and
// the commit-time pass — hand it to evaluate as prebuilt stage inputs. When a
// commit applies a delta, advanceWarm carries every maintained state to the
// new snapshot with IncCompute — delta-proportional work, same discipline as
// BoundsCache.Advance: advance against the old snapshot off to the side,
// install atomically, fall back to eviction past the work-share ratio — and
// re-admits each remembered query under its post-delta key, so the first
// post-commit query for a hot pattern is a cache hit, not a cold evaluation.
//
// What the pass re-runs follows from what an answer depends on (internal/core
// documents the contract). A find-all answer (match, which also serves topk,
// and TopKDiv) depends only on the pattern's output region: the candidate
// lists of the output node and of the query nodes it reaches, the liveness
// of every pair, and the live sub-product the live output pairs reach — the
// relevant sets R(uo,v) of §3.1. IncCompute, which walks the affected area
// anyway, reports whether the delta reached that region
// (IncStats.OutputReached); when it did not, every find-all answer riding the
// state is carried — re-keyed and installed like a re-evaluated one. TopKDH,
// the one kind that runs the early-termination engine, also reads the bound
// index, through the output node's bound vector
// (core.BoundsCache.OutputBounds, kept on the patternState), and the order in
// which the engine meets the whole candidate space: it is carried only when
// the delta reached no candidate pair at all (TouchedPairs == 0) and the
// vector did not move. Matches by simulation are local, so most deltas carry
// most answers; the shapes that do re-evaluate on a state compute its
// find-all pool once for all of them (any k). A commit costs what its delta
// reaches, not what the cache holds.
//
// Nor what the cache was once asked: an answer is re-evaluated before the ack
// on the bet that somebody reads it before the next change. One that
// maxWarmIdle commits in a row installed and nobody read has lost that bet
// often enough — it is still carried while carrying is free, and forgotten
// the first time it would cost an evaluation. Without this the commits of a
// session pay, until sixteen newer patterns happen to displace them, for
// every shape that was ever asked once.
//
// A state enters the registry one way, a cold build on a miss
// (buildPatternState), and leaves it one way besides replacement: eviction
// when its advance trips the work-share ratio (simulation.ErrIncFallback).
// Every answer is byte-identical to a cold evaluation, which the delta-chain
// fuzz in matcher_advance_test.go pins at every version.

const (
	// maxWarmPatterns bounds the pattern states a session maintains;
	// maxWarmShapes bounds the remembered queries riding each state. Past
	// either cap the least recently used one is replaced — the recency
	// discipline of the result LRU itself. Use means an evaluation, or the
	// first hit on an entry the advance pass installed (touch): plain hits
	// never reach the registry, so without the second a pattern served from
	// its advanced entries alone would look idle and lose its slot to the
	// first one-off miss. A state that has proven itself that way since the
	// last commit is not displaced at all (see warmState).
	maxWarmPatterns = 16
	maxWarmShapes   = 8
	// maxWarmIdle bounds how long the advance pass keeps re-evaluating an
	// answer nobody reads: the number of consecutive commits a shape may be
	// installed by without an evaluation or a first hit in between.
	maxWarmIdle = 16
)

// warmCache is a session's warm result cache: the result LRU, the registry of
// maintained pattern states behind it, and the advance pass's counters. A
// session without WithCache holds a nil one, on which run evaluates directly
// and advanceWarm does nothing. The type has no path to the published
// snapshot: its methods take the one their caller loaded, so a cache key
// (queryKey reads the version off it) and the answer it names cannot come
// from two snapshots.
type warmCache struct {
	lru  *cache.Cache
	warm warmRegistry
	// advanceEvicted counts states the commit-time advance pass evicted,
	// carried and reevaluated the answers it carried over and re-ran.
	advanceEvicted, carried, reevaluated atomic.Uint64
}

// warmRegistry holds the per-pattern incremental states behind a session's
// warm result cache. Everything in it that changes — which entries exist,
// an entry's current state, its recency tick and its remembered queries — is
// read and written under mu only: queries admit and remember under it; the
// commit path snapshots entries and their shapes under it, advances outside
// it (holding only updateMu), and installs the results under it again.
//
// The rule that keeps this true: once a slice is published into a warmEntry,
// nothing outside mu reads it. Whoever needs one after unlocking — the
// advance pass's snapshot, its install step's re-keying — works on a copy.
type warmRegistry struct {
	mu      sync.Mutex
	entries map[string]*warmEntry // canonical pattern text -> entry
	clock   uint64                // admission ticks for LRU replacement
}

// warmEntry is the registry's record of one hot pattern. proven: an answer
// the last advance pass installed for it has been served — the state earned
// its slot at the current version.
type warmEntry struct {
	st     *patternState
	used   uint64
	proven bool
	shapes []shape
}

// patternState is the maintained evaluation state of one hot pattern against
// one graph snapshot, shared by every query (any kind, k, λ) on that pattern.
// Never modified after construction, so it is safe to read outside the
// registry lock: the advance pass builds a successor and swaps the entry over
// to it.
type patternState struct {
	text string
	p    *Pattern
	inc  *simulation.IncState
	// bounds is the one thing a TopKDH answer reads beside inc:
	// the initial upper bounds of the output node's candidates under the
	// snapshot's bound index. Equal vectors on an untouched state mean equal
	// answers, which is what the advance pass compares.
	bounds []int32
}

// newPatternState wraps inc, the evaluation state of p at snapshot g, and
// reads its bound vector from g's index.
func newPatternState(g *Graph, text string, p *Pattern, inc *simulation.IncState) *patternState {
	cands := inc.CI.Lists[p.p.Output()]
	st := &patternState{text: text, p: p, inc: inc, bounds: make([]int32, len(cands))}
	g.boundsCache().OutputBounds(st.bounds, cands, inc.An.DescLabels)
	return st
}

// prebuilt exposes the state as evaluate's stage inputs.
func (st *patternState) prebuilt() *core.PrebuiltEval {
	return &core.PrebuiltEval{CI: st.inc.CI, Prod: st.inc.Prod, Sim: st.inc.Res}
}

// shape is one remembered query riding a warm entry — what the advance pass
// re-derives a cache key and value from at the next version — with its
// answer's facade value at the entry's current version. idle counts the
// commits that installed the answer since it was last used (evaluated, or
// read for the first time after an install).
type shape struct {
	id   string // shapeID(q, text): its identity across versions
	q    query
	val  any
	used uint64
	idle int
}

// patternText is the canonical text of p: its deterministic serialization,
// so structurally equal patterns share one text (and one registry entry, and
// one cache key). Writing to a bytes.Buffer cannot fail.
func patternText(p *Pattern) string {
	var buf bytes.Buffer
	_ = WritePattern(&buf, p)
	return buf.String()
}

// run answers q on p at snapshot g: through the LRU and the registry, or,
// on a nil cache, by evaluating directly.
func (c *warmCache) run(g *Graph, p *Pattern, q query) (any, QueryInfo, error) {
	info := QueryInfo{Version: g.Version()}
	if c == nil {
		a, err := evaluate(g, p, q, nil)
		return a.val, info, err
	}
	if err := q.check(); err != nil {
		return nil, info, err
	}
	text := patternText(p)
	v, outcome, err := c.lru.DoStatus(queryKey(q, g, text), func() (any, bool, error) {
		val, err := c.load(g, p, text, q)
		return val, false, err
	})
	if err != nil {
		return nil, info, err
	}
	if outcome == cache.OutcomeAdvanced {
		// The registry's recency means use, and this is the one use that
		// reaches it without an evaluation; plain hits stay off its lock.
		c.warm.touch(text, q)
	}
	info.Cache = string(outcome)
	return v, info, nil
}

// load is the cache-miss loader: evaluate, fed the pattern's maintained
// state at g (admitting one if needed) and remembering the query on it for
// the advance pass. A query the evaluation will reject anyway (k < 1,
// invalid pattern) admits nothing and lets evaluate produce the structured
// error.
func (c *warmCache) load(g *Graph, p *Pattern, text string, q query) (any, error) {
	if q.k < 1 || p.p.Validate() != nil {
		a, err := evaluate(g, p, q, nil)
		return a.val, err
	}
	st := c.warmState(g, p, text)
	a, err := evaluate(g, p, q, st.prebuilt())
	if err != nil {
		return nil, err
	}
	c.warm.remember(st, q, a.val)
	return a.val, nil
}

// remember records q and its answer on st's entry, replacing the least
// recently admitted shape past the cap. It is a no-op unless st is still the
// entry's current state: a transient state was never registered, and after a
// commit advanced the entry an answer computed at the old version must not
// sit among shapes the next advance will treat as current.
func (w *warmRegistry) remember(st *patternState, q query, val any) {
	sh := shape{id: shapeID(q, st.text), q: q, val: val}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.entries[st.text]
	if e == nil || e.st != st {
		return
	}
	w.clock++
	sh.used = w.clock
	slot := slices.IndexFunc(e.shapes, func(s shape) bool { return s.id == sh.id })
	if slot < 0 && len(e.shapes) < maxWarmShapes {
		e.shapes = append(e.shapes, sh)
		return
	}
	if slot < 0 {
		slot = 0
		for i := range e.shapes {
			if e.shapes[i].used < e.shapes[slot].used {
				slot = i
			}
		}
	}
	e.shapes[slot] = sh
}

// touch records that q on the pattern with canonical text text was just
// answered from an entry the advance pass installed: the state and the shape
// are in use, though no evaluation ran, and the shape's run of unread installs
// ends. Called once per shape per commit (the cache reports OutcomeAdvanced on
// the first hit only).
func (w *warmRegistry) touch(text string, q query) {
	id := shapeID(q, text)
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.entries[text]
	if e == nil {
		return
	}
	w.clock++
	e.used, e.proven = w.clock, true
	if i := slices.IndexFunc(e.shapes, func(s shape) bool { return s.id == id }); i >= 0 {
		e.shapes[i].used, e.shapes[i].idle = w.clock, 0
	}
}

// warmState returns the maintained state of p (canonical text: text) at
// snapshot g, admitting one if absent. When a commit raced past g, or the
// registry is full of states that have each served an advanced answer since
// the last commit (a one-off miss must not cost a pattern in use its slot),
// the returned state is a transient, good for this evaluation only.
func (c *warmCache) warmState(g *Graph, p *Pattern, text string) *patternState {
	w := &c.warm
	w.mu.Lock()
	if e := w.entries[text]; e != nil && e.st.inc.G == g.g {
		w.clock++
		e.used = w.clock
		st := e.st
		w.mu.Unlock()
		return st
	}
	w.mu.Unlock()

	st := buildPatternState(g, text, p)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.clock++
	if cur := w.entries[text]; cur != nil {
		if cur.st.inc.G == g.g {
			// Lost an admission race at the same snapshot: use the winner.
			cur.used = w.clock
			return cur.st
		}
		if cur.st.inc.G.Version() > g.g.Version() {
			// A commit advanced past this query's snapshot; don't clobber the
			// newer state — evaluate with the transient one.
			return st
		}
	} else if len(w.entries) >= maxWarmPatterns {
		oldest := ""
		for t, e := range w.entries {
			if !e.proven && (oldest == "" || e.used < w.entries[oldest].used) {
				oldest = t
			}
		}
		if oldest == "" {
			return st
		}
		delete(w.entries, oldest)
	}
	w.entries[text] = &warmEntry{st: st, used: w.clock}
	return st
}

// buildPatternState is warmState's heavy step: the candidate scan, the
// product and the settled fixpoint of p at g. A variable so that a test can
// park it and check that warmState runs it without holding the registry
// lock.
var buildPatternState = func(g *Graph, text string, p *Pattern) *patternState {
	return newPatternState(g, text, p, simulation.NewIncState(g.g, p.p, 0))
}

// advanceWarm carries every maintained pattern state and its remembered
// queries from gOld, the published snapshot, to g2 (the caller —
// commitLocked, holding updateMu — has applied merged to gOld but not yet
// published the result), and counts what that took into stats' Warm fields.
// States whose incremental advance trips the work-share ratio
// (simulation.ErrIncFallback) are evicted instead: a commit never pays a full
// rebuild for the cache's sake. Nothing is published here: the returned
// install function swaps the advanced states in and admits the advanced
// answers under their post-delta keys, and the caller runs it only after the
// commit's last fallible step — entries for a version that is never
// published must never become reachable, since a later commit could reuse
// the version number.
func (c *warmCache) advanceWarm(gOld, g2 *Graph, merged *graph.Delta, stats *IndexStats) func() {
	if c == nil {
		return func() {}
	}
	// One locked section takes everything the pass reads: the entries, the
	// state each holds right now, and a copy of its shapes. Queries keep
	// admitting and remembering meanwhile; install reconciles.
	type advance struct {
		e      *warmEntry
		old    *patternState
		new    *patternState // nil: evict
		shapes []shape
	}
	c.warm.mu.Lock()
	work := make([]advance, 0, len(c.warm.entries))
	for _, e := range c.warm.entries {
		work = append(work, advance{e: e, old: e.st, shapes: slices.Clone(e.shapes)})
	}
	c.warm.mu.Unlock()

	stats.WarmStates = len(work)
	for i := range work {
		a := &work[i]
		if a.old.inc.G != gOld.g {
			// Left behind by an earlier commit (admission race): unadvanceable.
			stats.WarmEvicted++
			continue
		}
		inc2, ist, err := simulation.IncCompute(a.old.inc, g2.g, merged, simulation.IncOptions{})
		if ist.TouchedPairs > 0 {
			stats.WarmTouched++
		}
		if err != nil {
			stats.WarmEvicted++
			continue
		}
		a.new = newPatternState(g2, a.old.text, a.old.p, inc2)
		// The carry rule. A find-all answer is a function of the output
		// region alone, so it carries whenever the delta did not reach that
		// region. A TopKDH answer carries only on a state the delta did not
		// touch at all (the old one re-pointed at g2) whose output bound
		// vector did not move. Everything else re-evaluates.
		sameBounds := ist.TouchedPairs == 0 && slices.Equal(a.new.bounds, a.old.bounds)
		pre := a.new.prebuilt()
		kept := a.shapes[:0]
		for _, sh := range a.shapes {
			sh.idle++
			if sh.q.kind.full() && !ist.OutputReached || !sh.q.kind.full() && sameBounds {
				stats.WarmCarried++
				kept = append(kept, sh)
				continue
			}
			if sh.idle > maxWarmIdle {
				// Nobody read the last maxWarmIdle installs of this answer:
				// the writer does not wait for another. The state stays, so
				// the next ask evaluates on it and is remembered again.
				stats.WarmDropped++
				continue
			}
			stats.WarmReevaluated++
			ans, err := evaluate(g2, a.old.p, sh.q, pre)
			if err != nil {
				continue // drop just this shape; the state stays useful
			}
			if sh.val = ans.val; pre.Pool == nil {
				// The first find-all shape pays for the state's match pool;
				// the others riding it (any k, match or topkdiv) reuse it.
				pre.Pool = ans.pool
			}
			kept = append(kept, sh)
		}
		a.shapes = kept
	}

	return func() {
		c.warm.mu.Lock()
		for _, a := range work {
			switch {
			case c.warm.entries[a.old.text] != a.e:
				// Replaced (LRU, or a newer admission) while we advanced.
			case a.new == nil:
				delete(c.warm.entries, a.old.text)
			default:
				// A copy: the loop below reads a.shapes outside the lock.
				a.e.st, a.e.shapes, a.e.proven = a.new, slices.Clone(a.shapes), false
			}
		}
		c.warm.mu.Unlock()
		// Every advanced answer, carried or re-evaluated, is re-keyed with the
		// post-delta version: the old-version entries become unreachable the
		// moment g2 is published, exactly as if they had been invalidated —
		// except their successors are already warm.
		for _, a := range work {
			if a.new == nil {
				continue
			}
			for _, sh := range a.shapes {
				c.lru.PutAdvanced(queryKey(sh.q, g2, a.old.text), sh.val)
			}
		}
		c.advanceEvicted.Add(uint64(stats.WarmEvicted))
		c.carried.Add(uint64(stats.WarmCarried))
		c.reevaluated.Add(uint64(stats.WarmReevaluated))
	}
}
