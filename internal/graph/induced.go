package graph

// InducedSubgraph returns the subgraph of g induced by keep (a set of node
// IDs) plus a mapping from new IDs back to the original ones. It is used to
// materialize the "graphs induced by relevant sets" of the paper's case study
// (Fig. 4).
func InducedSubgraph(g *Graph, keep []NodeID) (*Graph, []NodeID) {
	idx := make(map[NodeID]NodeID, len(keep))
	b := NewBuilderWithDict(g.Dict())
	orig := make([]NodeID, 0, len(keep))
	for _, v := range keep {
		if _, ok := idx[v]; ok {
			continue
		}
		nv := b.AddNode(g.Label(v), g.attrs.mapOf(v))
		idx[v] = nv
		orig = append(orig, v)
	}
	for v, nv := range idx {
		for _, w := range g.Out(v) {
			if nw, ok := idx[w]; ok {
				// Node IDs come from idx, so AddEdge cannot fail.
				_ = b.AddEdge(nv, nw)
			}
		}
	}
	return b.Build(), orig
}
