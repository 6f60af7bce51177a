package graph

import (
	"math"
	"sync"

	"divtopk/internal/bitset"
)

// Reachable returns the set of nodes reachable from v by a path of one or
// more edges (v itself is included only if it lies on a cycle). This is the
// reachability notion behind the paper's relevant sets: "descendants" of a
// node are the targets of non-empty paths.
func Reachable(g *Graph, from NodeID) *bitset.Set {
	out := bitset.New(g.NumNodes())
	queue := make([]NodeID, 0, 16)
	for _, w := range g.Out(from) {
		if out.Add(int(w)) {
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Out(v) {
			if out.Add(int(w)) {
				queue = append(queue, w)
			}
		}
	}
	return out
}

// BFSDist returns the directed BFS distance (in edges) from src to every
// node; unreachable nodes get -1. Used by the distance-based diversity
// function of §3.4.
func BFSDist(g *Graph, src NodeID) []int32 {
	return BFSDistInto(g, src, nil)
}

// BFSDistInto is BFSDist with a caller-supplied result buffer: when dist has
// sufficient capacity it is reused (and returned resliced to NumNodes),
// otherwise a fresh slice is allocated. Callers scoring many match pairs
// against the same graph reuse one buffer instead of allocating O(|V|) per
// pair. The BFS queue comes from the shared scratch pool, so a reused buffer
// makes the whole call allocation-free.
func BFSDistInto(g *Graph, src NodeID, dist []int32) []int32 {
	n := g.NumNodes()
	if cap(dist) >= n {
		dist = dist[:n]
	} else {
		dist = make([]int32, n)
	}
	for i := range dist {
		dist[i] = -1
	}
	sc := bfsPool.Get().(*bfsScratch)
	queue := sc.queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Out(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	bfsPool.Put(sc)
	return dist
}

// bfsScratch is the reusable state of point-to-point Distance queries: an
// epoch-stamped visited/distance pair (seen[v] == epoch marks v settled in
// the current call, so no O(|V|) clearing between calls) and the BFS queue.
type bfsScratch struct {
	seen  []int32
	dist  []int32
	epoch int32
	queue []NodeID
}

// bfsPool recycles scratch across Distance calls; the δd distance scoring of
// the diversified algorithms issues one such query per match pair, and the
// pool makes its steady state allocation-free.
var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// grab prepares the scratch for a graph with n nodes and bumps the epoch.
func (sc *bfsScratch) grab(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]int32, n)
		sc.dist = make([]int32, n)
		sc.epoch = 0
	}
	if sc.epoch == math.MaxInt32 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	sc.queue = sc.queue[:0]
}

// Distance returns the length of the shortest directed path from src to dst,
// or -1 if dst is unreachable. It stops the BFS as soon as dst is settled.
// The visited set is an epoch-stamped array from a shared pool rather than a
// per-call map, so repeated queries (δd scoring issues one per match pair)
// allocate nothing in the steady state.
func Distance(g *Graph, src, dst NodeID) int32 {
	if src == dst {
		return 0
	}
	sc := bfsPool.Get().(*bfsScratch)
	sc.grab(g.NumNodes())
	seen, dist, epoch := sc.seen, sc.dist, sc.epoch
	queue := sc.queue
	seen[src] = epoch
	dist[src] = 0
	queue = append(queue, src)
	found := int32(-1)
loop:
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Out(v) {
			if seen[w] != epoch {
				seen[w] = epoch
				dist[w] = dist[v] + 1
				if w == dst {
					found = dist[w]
					break loop
				}
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	bfsPool.Put(sc)
	return found
}

// InducedSubgraph returns the subgraph of g induced by keep (a set of node
// IDs) plus a mapping from new IDs back to the original ones. It is used to materialize the "graphs induced by
// relevant sets" of the paper's case study (Fig. 4).
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
