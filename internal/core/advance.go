package core

import (
	"fmt"
	"slices"
	"time"

	"divtopk/internal/graph"
)

// This file advances a BoundsCache across a graph delta instead of
// rebuilding it: the descendant-label index as versioned derived state.
//
// The index's rows are a pure function of the snapshot's SCC condensation
// and the member labels, so the affected area of a delta is found at the
// component level: DiffCondensation matches the two snapshots' components
// by member set, and ComputeFrontier splits the mismatches into three
// groups with different reach — membership changes and cyclicity flips
// touch only their own components' rows, successor-set changes propagate to
// their ancestor closure — and attaches to every label a mask of the groups
// that can actually reach a row of that label. A warmed label whose mask is
// empty provably has byte-identical rows and is shared; each non-empty mask
// names a (memoized) DescScope through which exactly the reachable rows are
// recomputed, one independent pass per label. The adaptive fallback
// rebuilds every warmed label from scratch once the recomputed cells' share
// of the whole index makes the partial passes pointless, mirroring
// simulation.IncCompute's discipline.

// AdvanceOptions tune BoundsCache.Advance.
type AdvanceOptions struct {
	// RebuildRatio is the work-share threshold above which Advance abandons
	// incremental maintenance for a full rebuild of the warmed labels
	// (default 0.25). The work share is the number of recomputed cells
	// (Σ over recomputed labels of their affected rows) over the whole
	// index (warmed labels × rows).
	RebuildRatio float64
}

func (o AdvanceOptions) ratio() float64 {
	if o.RebuildRatio <= 0 {
		return 0.25
	}
	return o.RebuildRatio
}

// AdvanceStats describes what one Advance call did.
type AdvanceStats struct {
	// Incremental reports whether the advance stayed on the partial path
	// (false: the fallback rebuilt every warmed label from scratch).
	Incremental bool
	// TotalRows is the new snapshot's node count; AffectedRows is the
	// number of rows in the union of the per-label affected sets (every row
	// on a rebuild) — the widest set any single label could have had
	// recomputed.
	TotalRows    int
	AffectedRows int
	// RowShare is AffectedRows/TotalRows. WorkShare is the recomputed
	// cells' share of the whole warmed index, RecomputedCells/(warmed
	// labels × TotalRows) — the quantity the fallback thresholds and the
	// benchmark's affected-share series tracks.
	RowShare  float64
	WorkShare float64
	// LabelsRecomputed and LabelsCopied split the warmed labels into the
	// two maintenance classes.
	LabelsRecomputed int
	LabelsCopied     int
	// DirtyComps counts the condensation components the delta structurally
	// changed; FrontierComps the frontier's seed components (membership +
	// successor-dirty + flipped — before ancestor expansion); ScopeComps
	// the components the partial passes traversed, summed over the
	// distinct masks.
	DirtyComps    int
	FrontierComps int
	ScopeComps    int
	// FrontierRows is the union affected-row count (equals AffectedRows on
	// the incremental path); RecomputedCells is Σ over recomputed labels of
	// the rows rewritten for that label.
	FrontierRows    int
	RecomputedCells int64
	// ShardWallMicros is the wall time of the per-label section
	// (the partial recomputes, or the full per-label rebuilds on the
	// fallback path).
	ShardWallMicros int64
}

// Mode names the maintenance path taken, for logs and wire responses.
func (s AdvanceStats) Mode() string {
	if s.Incremental {
		return "incremental"
	}
	return "rebuild"
}

// Advance derives the bound index of gNew from this cache without touching
// it: gNew must be a successor of the cache's snapshot in one update
// lineage — typically the immediate next version, or several versions ahead
// when a group commit applied a merged delta in one step — and sum must be
// the summary of the (merged) delta between exactly those two snapshots.
// The version is verified to move forward and a non-advancing call is a
// hard error, never a silent wrong index. The returned cache covers exactly
// the labels this one had warm (a label the delta introduced stays cold and
// fills lazily, or eagerly via Warm); its counts are byte-identical to a
// fresh NewBoundsCache+Warm on gNew, which the randomized delta-chain fuzz
// enforces for both modes. Advance reads this cache under its lock and is
// safe to run while the old snapshot keeps serving queries.
func (c *BoundsCache) Advance(gNew *graph.Graph, sum *graph.DeltaSummary, opts AdvanceOptions) (*BoundsCache, AdvanceStats, error) {
	if sum == nil {
		return nil, AdvanceStats{}, fmt.Errorf("core: Advance: nil delta summary")
	}
	if got := gNew.Version(); got <= c.g.Version() {
		return nil, AdvanceStats{}, fmt.Errorf("core: Advance: graph version %d, want > %d — gNew must be a successor of the cache's snapshot", got, c.g.Version())
	}
	if sum.OldNodes != c.g.NumNodes() || sum.NewNodes != gNew.NumNodes() {
		return nil, AdvanceStats{}, fmt.Errorf("core: Advance: summary covers %d→%d nodes, cache and graph have %d→%d — summary and delta do not match",
			sum.OldNodes, sum.NewNodes, c.g.NumNodes(), gNew.NumNodes())
	}

	// Snapshot the warmed rows; fills in flight on the old snapshot simply
	// miss the cut and refill lazily against gNew.
	c.mu.RLock()
	warm := make(map[graph.LabelID][]int32, len(c.counts))
	for id, row := range c.counts {
		warm[id] = row
	}
	c.mu.RUnlock()
	ids := make([]graph.LabelID, 0, len(warm))
	for id := range warm {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	nOld, nNew := sum.OldNodes, sum.NewNodes
	stats := AdvanceStats{Incremental: true, TotalRows: nNew}
	fresh := func() *BoundsCache {
		return &BoundsCache{
			g:      gNew,
			mode:   c.mode,
			counts: make(map[graph.LabelID][]int32, len(warm)),
			flight: make(map[graph.LabelID]chan struct{}),
		}
	}
	if len(ids) == 0 {
		// Nothing warm to advance: the new cache starts cold like this one.
		return fresh(), stats, nil
	}
	rebuild := func() (*BoundsCache, AdvanceStats, error) {
		nc := fresh()
		t0 := time.Now()
		for i, row := range graph.DescendantLabelCounts(gNew, ids, c.mode) {
			nc.counts[ids[i]] = row
		}
		stats.ShardWallMicros = time.Since(t0).Microseconds()
		stats.Incremental = false
		stats.AffectedRows = nNew
		stats.FrontierRows = nNew
		stats.RowShare = 1
		stats.WorkShare = 1
		stats.LabelsRecomputed = len(ids)
		stats.LabelsCopied = 0
		stats.RecomputedCells = int64(len(ids)) * int64(nNew)
		return nc, stats, nil
	}

	ratio := opts.ratio()
	condOld := c.g.Condensation()
	condNew := gNew.Condensation()
	diff := graph.DiffCondensation(condOld, condNew, nOld)
	stats.DirtyComps = diff.NumDirty

	if diff.NumDirty == 0 {
		// Structurally invisible delta (no appends possible: an appended
		// node's component can match no old one). Every row is unchanged;
		// the new cache shares the slices.
		nc := fresh()
		for id, row := range warm {
			nc.counts[id] = row
		}
		stats.LabelsCopied = len(ids)
		return nc, stats, nil
	}

	// The per-node frontier: which of the three change groups can reach
	// each label, and which components each group rewrites.
	frontier := graph.ComputeFrontier(condOld, condNew, diff, gNew)
	stats.FrontierComps = len(frontier.MemComps) + len(frontier.SuccDirty) + len(frontier.FlipComps)

	// Group component sets. Membership changes and flips rewrite their own
	// components only; successor-set changes propagate to every ancestor.
	var groups [3][]int32
	groups[0] = frontier.MemComps
	if len(frontier.SuccDirty) > 0 {
		inAnc := make([]bool, condNew.NumComps)
		groups[1] = graph.ExpandComps(frontier.SuccDirty, condNew.Pred, inAnc)
	}
	groups[2] = frontier.FlipComps

	// Per-mask affected component sets (deduplicated unions of the selected
	// groups), realized only for masks some warmed label actually has.
	masks := make([]uint8, len(ids))
	var labelsByMask [8]int
	for i, id := range ids {
		m := frontier.LabelMask(id)
		masks[i] = m
		labelsByMask[m]++
	}
	seen := make([]int8, condNew.NumComps)
	for i := range seen {
		seen[i] = -1
	}
	var maskComps [8][]int32
	var maskRows [8]int
	for m := 1; m < 8; m++ {
		if labelsByMask[m] == 0 && m != 7 {
			continue
		}
		var comps []int32
		rows := 0
		for g := 0; g < 3; g++ {
			if m&(1<<g) == 0 {
				continue
			}
			for _, cc := range groups[g] {
				if seen[cc] == int8(m) {
					continue
				}
				seen[cc] = int8(m)
				comps = append(comps, cc)
				rows += len(condNew.Members[cc])
			}
		}
		maskComps[m] = comps
		maskRows[m] = rows
	}
	// Mask 7 is the union of everything — the widest affected set, always
	// computed for the stats even when no label carries it.
	stats.AffectedRows = maskRows[7]
	stats.FrontierRows = maskRows[7]
	stats.RowShare = float64(stats.AffectedRows) / float64(nNew)
	for m := 1; m < 8; m++ {
		stats.LabelsRecomputed += labelsByMask[m]
		stats.RecomputedCells += int64(labelsByMask[m]) * int64(maskRows[m])
	}
	stats.LabelsCopied = labelsByMask[0]
	stats.WorkShare = float64(stats.RecomputedCells) / (float64(len(ids)) * float64(nNew))
	if stats.WorkShare > ratio {
		return rebuild()
	}

	// One memoized scope per distinct non-empty mask: at most seven partial
	// traversal regions no matter how many labels recompute through them.
	var scopes [8]*graph.DescScope
	for m := 1; m < 8; m++ {
		if labelsByMask[m] == 0 {
			continue
		}
		scopes[m] = graph.NewDescScope(condNew, maskComps[m])
		stats.ScopeComps += scopes[m].Comps()
	}

	// Per-label maintenance, one independent pass per label: the scopes'
	// Recompute keeps all mutable state per call.
	nc := fresh()
	t0 := time.Now()
	for i, id := range ids {
		old := warm[id]
		if m := masks[i]; m != 0 {
			row := make([]int32, nNew)
			copy(row, old)
			scopes[m].Recompute(gNew, id, c.mode, row)
			nc.counts[id] = row
		} else if nNew == nOld {
			nc.counts[id] = old // unchanged, share the slice
		} else {
			row := make([]int32, nNew) // appended tail stays zero
			copy(row, old)
			nc.counts[id] = row
		}
	}
	stats.ShardWallMicros = time.Since(t0).Microseconds()
	return nc, stats, nil
}
