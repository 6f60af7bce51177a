package graph

import (
	"fmt"
	"sort"
)

// NodeAppend is one appended node of a Delta: its label and optional
// attributes. Appended nodes receive the next dense IDs of the target graph,
// in append order.
type NodeAppend struct {
	Label string
	Attrs map[string]Value
}

// Delta is a batch of updates to apply to a graph snapshot: edge inserts,
// edge deletes, and node appends. Existing nodes never change label or
// attributes and are never removed — the update model of the paper's
// "frequently updated" social and web graphs, where content accumulates and
// links churn.
//
// Semantics (ApplyDelta): deletes are applied to the old edge set first,
// inserts after. Inserting an edge that is already present (or inserting the
// same edge twice) is a no-op, matching Builder.Build's deduplication;
// deleting an edge the graph does not have is an error, because a caller
// tracking a live graph that issues such a delete has lost sync with it.
type Delta struct {
	// NodeAppends are appended in order; node i of the slice becomes node
	// oldNumNodes+i of the new graph.
	NodeAppends []NodeAppend
	// EdgeInserts and EdgeDeletes reference nodes of the new graph (old IDs
	// plus the appended range).
	EdgeInserts [][2]NodeID
	EdgeDeletes [][2]NodeID
}

// AddNode appends a node to the delta and returns its index within the
// delta's appends (its final NodeID is the target graph's NumNodes plus this
// index). The attrs map is captured as given; the caller must not mutate it
// afterwards.
func (d *Delta) AddNode(label string, attrs map[string]Value) int {
	d.NodeAppends = append(d.NodeAppends, NodeAppend{Label: label, Attrs: attrs})
	return len(d.NodeAppends) - 1
}

// InsertEdge records the directed edge (u, v) for insertion.
func (d *Delta) InsertEdge(u, v NodeID) {
	d.EdgeInserts = append(d.EdgeInserts, [2]NodeID{u, v})
}

// DeleteEdge records the directed edge (u, v) for deletion.
func (d *Delta) DeleteEdge(u, v NodeID) {
	d.EdgeDeletes = append(d.EdgeDeletes, [2]NodeID{u, v})
}

// Empty reports whether the delta contains no updates.
func (d *Delta) Empty() bool {
	return len(d.NodeAppends) == 0 && len(d.EdgeInserts) == 0 && len(d.EdgeDeletes) == 0
}

// Size returns the number of individual updates the delta carries.
func (d *Delta) Size() int {
	return len(d.NodeAppends) + len(d.EdgeInserts) + len(d.EdgeDeletes)
}

// Merge folds other into d, producing one delta whose single application to
// base is equivalent to applying d and then other sequentially. other's edge
// endpoints are interpreted the way ApplyDelta would after d: IDs below
// base.NumNodes()+len(d.NodeAppends) name existing or d-appended nodes, and
// other's own appends take the IDs after that, which is exactly where they
// land in the merged append list — so no endpoint renumbering is needed.
//
// Deletes-before-inserts semantics carry over per edge: a delete of an edge d
// inserted cancels the insert (and, if the edge also exists in base, becomes
// a delete of the base edge, since d's insert was a no-op there); a delete of
// a base edge joins the merged delete list; an insert after a delete keeps
// both, which ApplyDelta resolves as delete-then-reinsert. A delete of an
// edge that neither base nor the pending inserts contain is an error, as is
// a delete incident to one of other's own appended nodes — the same
// lost-sync conditions ApplyDelta reports for a standalone delta.
//
// On error d is left unchanged; on success d holds the merged batch. The
// merged delta is a deterministic function of (base, d, other).
func (d *Delta) Merge(base *Graph, other *Delta) error {
	nBase := base.NumNodes()
	nBefore := nBase + len(d.NodeAppends)
	nAfter := nBefore + len(other.NodeAppends)
	for _, e := range other.EdgeInserts {
		if e[0] < 0 || int(e[0]) >= nAfter || e[1] < 0 || int(e[1]) >= nAfter {
			return fmt.Errorf("graph: delta insert edge (%d,%d) references unknown node (have %d nodes after appends)",
				e[0], e[1], nAfter)
		}
	}
	for _, e := range other.EdgeDeletes {
		if e[0] < 0 || int(e[0]) >= nAfter || e[1] < 0 || int(e[1]) >= nAfter {
			return fmt.Errorf("graph: delta delete edge (%d,%d) references unknown node (have %d nodes after appends)",
				e[0], e[1], nAfter)
		}
		if int(e[0]) >= nBefore || int(e[1]) >= nBefore {
			return fmt.Errorf("graph: delta deletes edge (%d,%d) incident to an appended node", e[0], e[1])
		}
	}

	// Working sets cloned from d; d itself is only rewritten after every
	// check below has passed.
	insSet := make(map[[2]NodeID]bool, len(d.EdgeInserts)+len(other.EdgeInserts))
	insList := make([][2]NodeID, 0, len(d.EdgeInserts)+len(other.EdgeInserts))
	for _, e := range d.EdgeInserts {
		if !insSet[e] {
			insSet[e] = true
			insList = append(insList, e)
		}
	}
	delSet := make(map[[2]NodeID]bool, len(d.EdgeDeletes)+len(other.EdgeDeletes))
	delList := make([][2]NodeID, 0, len(d.EdgeDeletes)+len(other.EdgeDeletes))
	for _, e := range d.EdgeDeletes {
		if !delSet[e] {
			delSet[e] = true
			delList = append(delList, e)
		}
	}

	inBase := func(e [2]NodeID) bool {
		return int(e[0]) < nBase && int(e[1]) < nBase && base.HasEdge(e[0], e[1])
	}
	for _, e := range sortedUniqueEdges(other.EdgeDeletes, false) {
		exists := inBase(e)
		switch {
		case insSet[e]:
			// Cancel the pending insert. If the edge also exists in base the
			// insert was a no-op there, so other's delete must still remove
			// the base edge.
			delete(insSet, e)
			if exists && !delSet[e] {
				delSet[e] = true
				delList = append(delList, e)
			}
		case exists && !delSet[e]:
			delSet[e] = true
			delList = append(delList, e)
		default:
			return fmt.Errorf("graph: delta deletes edge (%d,%d) the graph does not have", e[0], e[1])
		}
	}
	for _, e := range sortedUniqueEdges(other.EdgeInserts, false) {
		if !insSet[e] {
			insSet[e] = true
			insList = append(insList, e)
		}
	}

	// Commit: compact the insert list through the cancellations (keeping
	// first-occurrence order; a cancel-then-reinsert edge appears once, at
	// its reinsertion position).
	seen := make(map[[2]NodeID]bool, len(insList))
	ins := insList[:0]
	for _, e := range insList {
		if insSet[e] && !seen[e] {
			seen[e] = true
			ins = append(ins, e)
		}
	}
	d.NodeAppends = append(d.NodeAppends, other.NodeAppends...)
	d.EdgeInserts = ins
	d.EdgeDeletes = delList
	return nil
}

// sortedUniqueEdges returns edges sorted by key(e) with duplicates dropped,
// without mutating the input.
func sortedUniqueEdges(edges [][2]NodeID, byDst bool) [][2]NodeID {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]NodeID, len(edges))
	copy(out, edges)
	a, b := 0, 1
	if byDst {
		a, b = 1, 0
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][a] != out[j][a] {
			return out[i][a] < out[j][a]
		}
		return out[i][b] < out[j][b]
	})
	uniq := out[:0]
	for i, e := range out {
		if i > 0 && e == out[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	return uniq
}

// mergeAdjacency builds one direction of the new CSR: for every node, the
// old sorted neighbor run minus the sorted deletes, merged with the sorted
// inserts, deduplicated — a single linear pass over old adjacency plus
// delta, never a re-sort of the whole edge set. key selects the grouping
// endpoint (0 = by source over Out, 1 = by destination over In); neighbors
// carry the opposite endpoint. A delete that does not align with an old
// neighbor is reported with its original orientation.
//
// Only the few nodes that are key endpoints of an insert or delete need the
// per-edge merge; every run of untouched nodes between them has
// byte-identical adjacency in the new snapshot, so the run is spliced with
// one bulk copy and its offsets rewritten with a constant shift. A small
// delta against a large graph — the group-commit serving regime — therefore
// costs one memcpy of the edge array plus O(touched) merge work instead of
// an O(|E|) per-edge walk.
func mergeAdjacency(nNew int, oldOff []int32, oldAdj []NodeID, nOld int,
	ins, del [][2]NodeID, key int) ([]int32, []NodeID, error) {

	other := 1 - key
	off := make([]int32, nNew+1)
	adj := make([]NodeID, 0, len(oldAdj)+len(ins))
	di, ii := 0, 0
	for v := 0; v < nNew; {
		// The next touched node is the smallest key endpoint the remaining
		// (sorted) inserts and deletes name; everything before it is an
		// untouched run.
		next := nNew
		if ii < len(ins) && int(ins[ii][key]) < next {
			next = int(ins[ii][key])
		}
		if di < len(del) && int(del[di][key]) < next {
			next = int(del[di][key])
		}
		if v < next {
			if hi := min(next, nOld); v < hi {
				shift := int32(len(adj)) - oldOff[v]
				adj = append(adj, oldAdj[oldOff[v]:oldOff[hi]]...)
				for u := v; u < hi; u++ {
					off[u+1] = oldOff[u+1] + shift
				}
				v = hi
			}
			// Untouched appended nodes have no adjacency.
			for ; v < next; v++ {
				off[v+1] = int32(len(adj))
			}
			continue
		}
		// v == next: a touched node — merge its deletes and inserts into the
		// (possibly empty) old neighbor run.
		var old []NodeID
		if v < nOld {
			old = oldAdj[oldOff[v]:oldOff[v+1]]
		}
		oi := 0
		for oi < len(old) || (ii < len(ins) && int(ins[ii][key]) == v) {
			// Surviving old neighbor at the front, after applying deletes.
			haveOld := false
			var ow NodeID
			for oi < len(old) {
				w := old[oi]
				if di < len(del) && int(del[di][key]) == v && del[di][other] == w {
					di++
					oi++
					continue
				}
				ow, haveOld = w, true
				break
			}
			haveIns := ii < len(ins) && int(ins[ii][key]) == v
			var iw NodeID
			if haveIns {
				iw = ins[ii][other]
			}
			var w NodeID
			switch {
			case haveOld && (!haveIns || ow <= iw):
				w = ow
				oi++
				if haveIns && iw == ow {
					ii++ // insert of an existing edge: no-op
				}
			case haveIns:
				w = iw
				ii++
			default:
				// Neither side has a neighbor left; loop condition ends.
				continue
			}
			adj = append(adj, w)
		}
		// Any delete still pointing at v matched no old neighbor.
		if di < len(del) && int(del[di][key]) == v {
			e := del[di]
			return nil, nil, fmt.Errorf("graph: delta deletes edge (%d,%d) the graph does not have", e[0], e[1])
		}
		off[v+1] = int32(len(adj))
		v++
	}
	if di < len(del) {
		e := del[di]
		return nil, nil, fmt.Errorf("graph: delta deletes edge (%d,%d) the graph does not have", e[0], e[1])
	}
	return off, adj, nil
}

// DeltaSummary is the node span of one applied delta. The derived-state
// layers that advance with the graph (the descendant-label bound index
// foremost) take what changed from the condensation diff of the two
// snapshots (DiffCondensation); the summary ties the advance to the delta
// that produced the new snapshot, and Advance validates the span.
type DeltaSummary struct {
	// OldNodes and NewNodes are the node counts before and after the delta;
	// appended nodes hold the IDs OldNodes..NewNodes-1.
	OldNodes, NewNodes int
}

// summarize builds the summary of d against a graph with nOld nodes.
func (d *Delta) summarize(nOld int) *DeltaSummary {
	return &DeltaSummary{OldNodes: nOld, NewNodes: nOld + len(d.NodeAppends)}
}

// ApplyDelta derives a new immutable graph snapshot from g and d with
// Version g.Version()+1; see ApplyDeltaVersionStep, which it wraps when the
// caller has no use for the summary.
func ApplyDelta(g *Graph, d *Delta) (*Graph, error) {
	g2, _, err := ApplyDeltaVersionStep(g, d, 1)
	return g2, err
}

// ApplyDeltaVersionStep derives a new immutable graph snapshot from g and d:
// appended nodes take the next dense IDs, deletes are removed from and
// inserts merged into both CSR directions in one linear pass each (the old
// adjacency is already sorted, so no re-sort of the edge set happens), and
// the result's Version is g.Version()+steps. g itself is untouched and
// remains fully usable; the two snapshots share the label dictionary
// (appended labels are interned into it — Dict is safe for that even while g
// serves queries) and all per-node data that did not change. The returned
// DeltaSummary carries the delta's node span for the derived-state layers
// that advance with the graph instead of rebuilding per snapshot.
//
// steps is the number of version increments the snapshot represents: 1 for a
// single applied delta, K for a group-committed merge of K deltas — the
// result then carries the version the K-th sequential application would
// have, so each merged caller can still be acknowledged with its own
// version and the write-ahead log stays contiguous.
//
// If g's condensation has already been computed, the new snapshot's
// condensation is patched forward from it whenever the delta permits
// (PatchCondensation) — the dominant cost of index maintenance on graphs
// with large SCCs is re-running Tarjan, and most churn deltas provably leave
// the SCC partition intact.
func ApplyDeltaVersionStep(g *Graph, d *Delta, steps uint64) (*Graph, *DeltaSummary, error) {
	if steps == 0 {
		return nil, nil, fmt.Errorf("graph: delta application must advance the version (steps=0)")
	}
	if d.Empty() {
		// Nothing changed: share every array with g (all are immutable) and
		// only advance the version.
		g2 := &Graph{
			n:       g.n,
			m:       g.m,
			labels:  g.labels,
			attrs:   g.attrs,
			dict:    g.dict,
			outOff:  g.outOff,
			outAdj:  g.outAdj,
			inOff:   g.inOff,
			inAdj:   g.inAdj,
			byLabel: g.byLabel,
			version: g.version + steps,
		}
		if cond := g.condIfComputed(); cond != nil {
			g2.adoptCondensation(cond)
		}
		return g2, d.summarize(g.n), nil
	}
	nOld := g.n
	nNew := nOld + len(d.NodeAppends)
	check := func(edges [][2]NodeID, what string) error {
		for _, e := range edges {
			if e[0] < 0 || int(e[0]) >= nNew || e[1] < 0 || int(e[1]) >= nNew {
				return fmt.Errorf("graph: delta %s edge (%d,%d) references unknown node (have %d nodes after appends)",
					what, e[0], e[1], nNew)
			}
		}
		return nil
	}
	if err := check(d.EdgeInserts, "insert"); err != nil {
		return nil, nil, err
	}
	if err := check(d.EdgeDeletes, "delete"); err != nil {
		return nil, nil, err
	}
	for _, e := range d.EdgeDeletes {
		if int(e[0]) >= nOld || int(e[1]) >= nOld {
			return nil, nil, fmt.Errorf("graph: delta deletes edge (%d,%d) incident to an appended node", e[0], e[1])
		}
	}

	insOut := sortedUniqueEdges(d.EdgeInserts, false)
	delOut := sortedUniqueEdges(d.EdgeDeletes, false)
	outOff, outAdj, err := mergeAdjacency(nNew, g.outOff, g.outAdj, nOld, insOut, delOut, 0)
	if err != nil {
		return nil, nil, err
	}
	insIn := sortedUniqueEdges(d.EdgeInserts, true)
	delIn := sortedUniqueEdges(d.EdgeDeletes, true)
	inOff, inAdj, err := mergeAdjacency(nNew, g.inOff, g.inAdj, nOld, insIn, delIn, 1)
	if err != nil {
		return nil, nil, err
	}

	// Capped slices: the first append below copies instead of scribbling into
	// the old graph's arrays.
	labels := g.labels[:nOld:nOld]
	for _, na := range d.NodeAppends {
		labels = append(labels, g.dict.Intern(na.Label))
	}
	attrs := g.attrs.appended(nOld, d.NodeAppends)

	// byLabel: appended node IDs exceed every old ID, so per-label lists stay
	// ascending by appending; labels that gain no node share the old slice
	// (capped, so a future append cannot scribble into it).
	byLabel := make(map[LabelID][]NodeID, len(g.byLabel))
	for l, nodes := range g.byLabel {
		byLabel[l] = nodes[:len(nodes):len(nodes)]
	}
	for i := nOld; i < nNew; i++ {
		byLabel[labels[i]] = append(byLabel[labels[i]], NodeID(i))
	}

	g2 := &Graph{
		n:       nNew,
		m:       len(outAdj),
		labels:  labels,
		attrs:   attrs,
		dict:    g.dict,
		outOff:  outOff,
		outAdj:  outAdj,
		inOff:   inOff,
		inAdj:   inAdj,
		byLabel: byLabel,
		version: g.version + steps,
	}
	// Patch the condensation forward when the predecessor's is available and
	// the delta provably preserves the SCC partition; no reader has seen g2
	// yet, so adopting here is race-free. On bail-out the first Condensation()
	// caller recomputes from scratch as before.
	if oldCond := g.condIfComputed(); oldCond != nil {
		if patched := PatchCondensation(oldCond, g, g2, insOut, delOut); patched != nil {
			g2.adoptCondensation(patched)
		}
	}
	return g2, d.summarize(nOld), nil
}
