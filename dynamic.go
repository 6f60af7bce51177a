package divtopk

import (
	"divtopk/internal/graph"
	"divtopk/internal/ranking"
)

// ErrLambdaRange is returned by the diversified entry points for a λ outside
// [0,1] — including NaN and ±Inf, which a naive "< 0 || > 1" check lets
// through to silently produce NaN objective values. Match it with errors.Is.
var ErrLambdaRange = ranking.ErrLambdaRange

// Delta is a batch of graph updates: node appends, edge inserts, edge
// deletes. Build one with its methods and apply it with ApplyDelta or
// Matcher.Update; deletes are applied before inserts, inserting an existing
// edge is a no-op, and deleting a missing edge fails the whole delta.
type Delta struct {
	d graph.Delta
}

// AddNode appends a node with the given label and optional attributes and
// returns its append index: appended node i receives node ID
// target.NumNodes()+i when the delta is applied. Edges referencing appended
// nodes use that final ID.
func (d *Delta) AddNode(label string, attrs ...Attr) int {
	m := make(map[string]graph.Value, len(attrs))
	for _, a := range attrs {
		m[a.key] = a.val
	}
	return d.d.AddNode(label, m)
}

// InsertEdge records the directed edge (u, v) for insertion; endpoints may
// reference nodes appended by this delta.
func (d *Delta) InsertEdge(u, v int) {
	d.d.InsertEdge(graph.NodeID(u), graph.NodeID(v))
}

// DeleteEdge records the directed edge (u, v) for deletion. The edge must
// exist in the graph the delta is applied to.
func (d *Delta) DeleteEdge(u, v int) {
	d.d.DeleteEdge(graph.NodeID(u), graph.NodeID(v))
}

// Merge folds other into d, where d is a pending batch of updates against
// base and other was built against the snapshot applying d to base would
// produce — the group-commit coalescing step. Appends concatenate (other's
// appended nodes keep the IDs the sequential chain would have assigned),
// a delete cancels a pending insert of the same edge, and a delete of an
// edge neither base nor the pending inserts contain fails the merge and
// leaves d untouched. Applying the merged delta to base yields exactly the
// snapshot of applying d then other.
func (d *Delta) Merge(base *Graph, other *Delta) error {
	return d.d.Merge(base.g, &other.d)
}

// Empty reports whether the delta carries no updates.
func (d *Delta) Empty() bool { return d.d.Empty() }

// Size returns the number of individual updates in the delta.
func (d *Delta) Size() int { return d.d.Size() }

// Version returns the graph's snapshot version: 0 for a built, parsed or
// generated graph, one more than its predecessor for every ApplyDelta
// result. The Matcher folds this version into every cache key, which is what
// makes serving dynamic graphs sound: entries cached against an older
// snapshot become unreachable the moment an update lands.
func (g *Graph) Version() uint64 { return g.g.Version() }

// ApplyDelta derives a new immutable graph snapshot: appended nodes take the
// next dense IDs, edge deletes and inserts are merged into the adjacency in
// one linear pass, and the result's Version is the input's plus one. The
// input graph is untouched and keeps serving queries; the snapshots share
// the label dictionary and all unchanged per-node data. The new snapshot's
// bound index is built lazily on first use; Matcher.Update instead advances
// the previous snapshot's index incrementally (see Matcher.UpdateWithStats).
func ApplyDelta(g *Graph, d *Delta) (*Graph, error) {
	g2, err := graph.ApplyDelta(g.g, &d.d)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g2}, nil
}
