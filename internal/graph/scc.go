package graph

// This file implements strongly connected components and the condensation
// (SCC graph) used throughout the paper: the topological rank r(v) of §4 is
// defined on the SCC graph G_SCC, and both the pattern analysis (Q_SCC for
// TopK) and the relevant-set computation (condensed product graph) need SCCs
// of graphs that exist only implicitly. Tarjan's algorithm is therefore
// implemented iteratively and generically over an adjacency callback.

// AdjFunc enumerates the successors of node v, invoking emit for each one.
type AdjFunc func(v int32, emit func(w int32))

// Condensation describes the SCC decomposition of a directed graph with n
// nodes, together with its condensed DAG and the topological ranks of §4:
// rank(c) = 0 for condensation leaves (out-degree 0), otherwise
// 1 + max(rank of successors).
type Condensation struct {
	// Comp maps each node to its SCC index. SCC indices are a reverse
	// topological order: every edge (u,v) with Comp[u] != Comp[v] satisfies
	// Comp[u] > Comp[v] (Tarjan emits sinks first).
	Comp []int32
	// NumComps is the number of SCCs.
	NumComps int
	// Members lists the nodes of each SCC.
	Members [][]int32
	// Succ is the deduplicated adjacency of the condensed DAG.
	Succ [][]int32
	// Pred is the deduplicated reverse adjacency of the condensed DAG.
	Pred [][]int32
	// Rank is the topological rank of each SCC (0 = leaf).
	Rank []int32
	// Nontrivial reports whether an SCC contains a cycle: more than one
	// member, or a single member with a self-loop.
	Nontrivial []bool
}

// tarjanFrame is an explicit stack frame for the iterative Tarjan DFS.
type tarjanFrame struct {
	v    int32
	succ []int32 // successors of v, gathered when the frame is pushed
	next int     // index of the next successor to visit
}

// Condense computes the SCC condensation of the implicit graph with nodes
// 0..n-1 and adjacency adj. It is safe for graphs deep enough to overflow a
// call stack: the DFS is fully iterative.
func Condense(n int, adj AdjFunc) *Condensation {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}

	var (
		counter int32
		stack   []int32 // Tarjan's node stack
		frames  []tarjanFrame
		nComp   int32
	)

	succOf := func(v int32) []int32 {
		var out []int32
		adj(v, func(w int32) { out = append(out, w) })
		return out
	}

	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], tarjanFrame{v: root, succ: succOf(root)})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, tarjanFrame{v: w, succ: succOf(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Frame finished: pop and propagate lowlink.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}

	c := &Condensation{
		Comp:       comp,
		NumComps:   int(nComp),
		Members:    make([][]int32, nComp),
		Succ:       make([][]int32, nComp),
		Pred:       make([][]int32, nComp),
		Rank:       make([]int32, nComp),
		Nontrivial: make([]bool, nComp),
	}
	for v := int32(0); v < int32(n); v++ {
		c.Members[comp[v]] = append(c.Members[comp[v]], v)
	}

	// Build the condensed DAG with deduplication. seen[c2] = current source
	// SCC + 1 avoids clearing the mark array between SCCs — which is only
	// exact when each SCC's edges are scanned contiguously, so the walk goes
	// component by component over the member lists rather than in node order
	// (interleaved members of two SCCs sharing a target would otherwise
	// re-stamp each other and emit duplicate condensed edges, and the loose
	// descendant counts sum successor lists without re-deduplicating).
	seen := make([]int32, nComp)
	for cv := int32(0); cv < nComp; cv++ {
		for _, v := range c.Members[cv] {
			adj(v, func(w int32) {
				cw := comp[w]
				if cw == cv {
					if w == v {
						c.Nontrivial[cv] = true
					}
					return
				}
				if seen[cw] != cv+1 {
					seen[cw] = cv + 1
					c.Succ[cv] = append(c.Succ[cv], cw)
					c.Pred[cw] = append(c.Pred[cw], cv)
				}
			})
		}
	}
	for i := range c.Members {
		if len(c.Members[i]) > 1 {
			c.Nontrivial[i] = true
		}
	}

	// Ranks: SCC indices are a reverse topological order (all successors of
	// component i have indices < i), so a single ascending sweep suffices.
	for i := 0; i < int(nComp); i++ {
		r := int32(0)
		for _, s := range c.Succ[i] {
			if c.Rank[s]+1 > r {
				r = c.Rank[s] + 1
			}
		}
		c.Rank[i] = r
	}
	return c
}

// CondenseGraph computes the condensation of g's out-adjacency.
func CondenseGraph(g *Graph) *Condensation {
	return Condense(g.NumNodes(), func(v int32, emit func(int32)) {
		for _, w := range g.Out(v) {
			emit(w)
		}
	})
}
