package graph

// This file implements strongly connected components and the condensation
// (SCC graph) used throughout the paper: the topological rank r(v) of §4 is
// defined on the pattern's condensation Q_SCC (pattern.Analysis computes it),
// and the relevant sets of §3.1 are read off the condensed product graph.
// Every caller condenses a graph in CSR form — the data graph, the pattern,
// a filtered product region — so there is one iterative Tarjan, CondenseCSR.

// Condensation describes the SCC decomposition of a directed graph with n
// nodes, together with its condensed DAG.
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
	// Nontrivial reports whether an SCC contains a cycle: more than one
	// member, or a single member with a self-loop.
	Nontrivial []bool
}

// CondenseCSR computes the SCC condensation of a graph given in CSR form:
// node v's successors are adj[off[v]:off[v+1]], duplicates and self-loops
// allowed. The DFS is fully iterative, so graphs deep enough to overflow a
// call stack are safe, and it traverses the slices directly, so it performs
// no per-node allocation. Component numbering, Members, Succ and Pred order
// depend only on the adjacency order, which the byte-identical maintenance
// of the derived indexes relies on. The relevant-set kernel condenses a
// freshly filtered product region per sweep, which is why the constant
// factor here matters.
func CondenseCSR(n int, off []int32, adj []int32) *Condensation {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}

	type frame struct {
		v    int32
		next int32 // index into adj of the next successor to visit
	}
	var (
		counter int32
		stack   []int32
		frames  []frame
		nComp   int32
	)

	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root, next: off[root]})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < off[f.v+1] {
				w := adj[f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, next: off[w]})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
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
		Nontrivial: make([]bool, nComp),
	}

	// Members via counting sort into one backing array: a condensation of a
	// per-query product graph has one component per pair in the common
	// (acyclic) case, and per-component appends would dominate the
	// allocation profile.
	memberOff := make([]int32, nComp+1)
	for _, cv := range comp {
		memberOff[cv+1]++
	}
	for i := int32(0); i < nComp; i++ {
		memberOff[i+1] += memberOff[i]
	}
	memberBuf := make([]int32, n)
	next := make([]int32, nComp)
	copy(next, memberOff[:nComp])
	for v := int32(0); v < int32(n); v++ {
		cv := comp[v]
		memberBuf[next[cv]] = v
		next[cv]++
	}
	for i := int32(0); i < nComp; i++ {
		c.Members[i] = memberBuf[memberOff[i]:memberOff[i+1]]
	}

	// Condensed DAG with deduplication: seen[cw] stamps the component whose
	// edges are being scanned, so clearing the marks between components is
	// never needed. Two passes over backing arrays (positive stamps count,
	// negative stamps fill) make the per-component slices subslices, not
	// appends. Both passes walk component by component over the member lists:
	// the stamp only deduplicates exactly when each component's edges are
	// scanned contiguously (interleaved members of two components sharing a
	// target would re-stamp each other and emit duplicate condensed edges),
	// and the loose descendant counts sum successor lists without
	// re-deduplicating.
	seen := make([]int32, nComp)
	succCnt := make([]int32, nComp+1)
	predCnt := make([]int32, nComp+1)
	nEdges := int32(0)
	for cv := int32(0); cv < nComp; cv++ {
		for _, v := range c.Members[cv] {
			for e := off[v]; e < off[v+1]; e++ {
				w := adj[e]
				cw := comp[w]
				if cw == cv {
					if w == v {
						c.Nontrivial[cv] = true
					}
					continue
				}
				if seen[cw] != cv+1 {
					seen[cw] = cv + 1
					succCnt[cv+1]++
					predCnt[cw+1]++
					nEdges++
				}
			}
		}
	}
	for i := int32(0); i < nComp; i++ {
		succCnt[i+1] += succCnt[i]
		predCnt[i+1] += predCnt[i]
	}
	succBuf := make([]int32, nEdges)
	predBuf := make([]int32, nEdges)
	succNext := make([]int32, nComp)
	predNext := make([]int32, nComp)
	copy(succNext, succCnt[:nComp])
	copy(predNext, predCnt[:nComp])
	for cv := int32(0); cv < nComp; cv++ {
		for _, v := range c.Members[cv] {
			for e := off[v]; e < off[v+1]; e++ {
				cw := comp[adj[e]]
				if cw == cv {
					continue
				}
				if seen[cw] != -(cv + 1) {
					seen[cw] = -(cv + 1)
					succBuf[succNext[cv]] = cw
					succNext[cv]++
					predBuf[predNext[cw]] = cv
					predNext[cw]++
				}
			}
		}
	}
	for i := int32(0); i < nComp; i++ {
		if succCnt[i] < succCnt[i+1] {
			c.Succ[i] = succBuf[succCnt[i]:succCnt[i+1]]
		}
		if predCnt[i] < predCnt[i+1] {
			c.Pred[i] = predBuf[predCnt[i]:predCnt[i+1]]
		}
	}

	for i := range c.Members {
		if len(c.Members[i]) > 1 {
			c.Nontrivial[i] = true
		}
	}
	return c
}
