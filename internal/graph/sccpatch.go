package graph

// Incremental condensation maintenance for the update path. On graphs with a
// large strongly connected core, re-running Tarjan per delta dominates the
// whole index-maintenance budget (tens of milliseconds on the benchmark
// graphs), yet almost every churn delta provably leaves the SCC partition
// intact: appended nodes start as fresh singletons, intra-component inserts
// change nothing structural, and inter-component edges only rewire the
// condensed DAG. PatchCondensation exploits exactly those cases and bails
// out — conservatively, to a full recompute — on everything else.

// patchScanCap bounds the total adjacency entries the delete survivor scans
// may read before the patch gives up. Deletes between two huge components
// would otherwise degenerate into scanning a large fraction of the graph,
// at which point a full Tarjan run is no worse.
const patchScanCap = 4096

// PatchCondensation derives gNew's condensation from gOld's, where gNew =
// gOld + a delta whose deduplicated edge inserts and deletes are ins and del
// (endpoints of del reference gOld nodes only, as ApplyDelta guarantees).
// It returns nil when the delta may have changed the SCC partition in a way
// the patch cannot cheaply verify — the caller then falls back to the full
// recompute. A non-nil result is exact: the same partition Tarjan would
// find, under a (possibly different, but equally valid) reverse-topological
// numbering.
//
// The patch keeps every old component as-is and adds one singleton per
// appended node, then verifies that partition against gNew:
//
//   - an intra-component delete could split the component — bail;
//   - an intra-component insert changes nothing (a self-loop marks a
//     trivial component Nontrivial);
//   - an inter-component insert adds a condensed-DAG edge;
//   - an inter-component delete removes the condensed-DAG edge only if no
//     parallel node-level edge survives in gNew (checked by scanning the
//     smaller side's adjacency, capped at patchScanCap entries — bail
//     beyond that);
//
// and finally re-derives a reverse-topological numbering of the tentative
// condensed DAG with a deterministic Kahn pass. If the pass completes, the
// DAG is acyclic, every part is strongly connected internally, and the
// partition therefore equals gNew's SCC partition; if it stalls, inserted
// edges have merged components — bail. Member slices are shared with the
// old condensation (node membership of surviving components is unchanged).
func PatchCondensation(old *Condensation, gOld, gNew *Graph, ins, del [][2]NodeID) *Condensation {
	nOld := gOld.NumNodes()
	nNew := gNew.NumNodes()
	nComp := old.NumComps
	k := nNew - nOld
	nTent := nComp + k

	// Tentative component of a gNew node: old membership for old nodes, a
	// fresh singleton per appended node.
	tentComp := func(x NodeID) int32 {
		if int(x) < nOld {
			return old.Comp[x]
		}
		return int32(nComp + int(x) - nOld)
	}

	flip := make(map[int32]bool)
	addedSet := make(map[[2]int32]bool)
	var added [][2]int32
	for _, e := range ins {
		cu, cv := tentComp(e[0]), tentComp(e[1])
		if e[0] == e[1] {
			if int(cu) < nComp && old.Nontrivial[cu] {
				continue
			}
			flip[cu] = true
			continue
		}
		if cu == cv {
			// Endpoints already strongly connected (the component has >= 2
			// members, so it is already Nontrivial).
			continue
		}
		p := [2]int32{cu, cv}
		if !addedSet[p] {
			addedSet[p] = true
			added = append(added, p)
		}
	}

	removed := make(map[[2]int32]bool)
	checked := make(map[[2]int32]bool)
	scanned := 0
	for _, e := range del {
		cu, cv := old.Comp[e[0]], old.Comp[e[1]]
		if cu == cv {
			return nil // possible split of a strongly connected component
		}
		p := [2]int32{cu, cv}
		if checked[p] {
			continue
		}
		checked[p] = true
		// Exact survivor check against gNew: does any node-level edge from
		// cu to cv remain? Scan whichever side has fewer members, through
		// the matching adjacency direction.
		survives := false
		if len(old.Members[cu]) <= len(old.Members[cv]) {
			for _, x := range old.Members[cu] {
				succ := gNew.Out(x)
				scanned += len(succ)
				if scanned > patchScanCap {
					return nil
				}
				for _, w := range succ {
					if tentComp(w) == cv {
						survives = true
						break
					}
				}
				if survives {
					break
				}
			}
		} else {
			for _, y := range old.Members[cv] {
				pred := gNew.In(y)
				scanned += len(pred)
				if scanned > patchScanCap {
					return nil
				}
				for _, w := range pred {
					if tentComp(w) == cu {
						survives = true
						break
					}
				}
				if survives {
					break
				}
			}
		}
		if !survives {
			removed[p] = true
		}
	}

	// Fast path: the condensed DAG is structurally untouched. With no
	// appends the numbering stays valid too, so only Nontrivial can differ.
	if k == 0 && len(added) == 0 && len(removed) == 0 {
		if len(flip) == 0 {
			return old
		}
		nontrivial := make([]bool, nComp)
		copy(nontrivial, old.Nontrivial)
		for c := range flip {
			nontrivial[c] = true
		}
		return &Condensation{
			Comp:       old.Comp,
			NumComps:   old.NumComps,
			Members:    old.Members,
			Succ:       old.Succ,
			Pred:       old.Pred,
			Nontrivial: nontrivial,
		}
	}

	// Tentative successor lists under the edits, deduplicated via a stamp
	// array (old lists are already deduplicated; added edges may coincide
	// with surviving old ones).
	var addedSucc map[int32][]int32
	if len(added) > 0 {
		addedSucc = make(map[int32][]int32, len(added))
		for _, p := range added {
			addedSucc[p[0]] = append(addedSucc[p[0]], p[1])
		}
	}
	stamp := make([]int32, nTent)
	for i := range stamp {
		stamp[i] = -1
	}
	succTent := make([][]int32, nTent)
	totalSucc := 0
	for c := 0; c < nTent; c++ {
		var out []int32
		if c < nComp {
			oldSucc := old.Succ[c]
			if len(removed) == 0 {
				out = append(out, oldSucc...)
				for _, s := range oldSucc {
					stamp[s] = int32(c)
				}
			} else {
				for _, s := range oldSucc {
					if removed[[2]int32{int32(c), s}] {
						continue
					}
					stamp[s] = int32(c)
					out = append(out, s)
				}
			}
		}
		for _, s := range addedSucc[int32(c)] {
			if stamp[s] == int32(c) {
				continue
			}
			stamp[s] = int32(c)
			out = append(out, s)
		}
		succTent[c] = out
		totalSucc += len(out)
	}

	// Tentative predecessor CSR, filled in ascending source order so the
	// Kahn pass below is deterministic.
	predCnt := make([]int32, nTent)
	for _, succ := range succTent {
		for _, s := range succ {
			predCnt[s]++
		}
	}
	predOff := make([]int32, nTent+1)
	for c := 0; c < nTent; c++ {
		predOff[c+1] = predOff[c] + predCnt[c]
	}
	predAdj := make([]int32, totalSucc)
	fill := make([]int32, nTent)
	copy(fill, predOff[:nTent])
	for c := 0; c < nTent; c++ {
		for _, s := range succTent[c] {
			predAdj[fill[s]] = int32(c)
			fill[s]++
		}
	}

	// Deterministic Kahn pass, sinks first: a component is numbered once
	// all its successors are, so ascending new index is a reverse
	// topological order — the numbering invariant every consumer relies on.
	outdeg := make([]int32, nTent)
	queue := make([]int32, 0, nTent)
	for c := 0; c < nTent; c++ {
		outdeg[c] = int32(len(succTent[c]))
		if outdeg[c] == 0 {
			queue = append(queue, int32(c))
		}
	}
	perm := make([]int32, nTent)
	next := int32(0)
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		perm[c] = next
		next++
		for _, p := range predAdj[predOff[c]:predOff[c+1]] {
			outdeg[p]--
			if outdeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if int(next) != nTent {
		return nil // a cycle: inserted edges merged components
	}

	// Materialize the patched condensation under the new numbering.
	comp := make([]int32, nNew)
	for x := 0; x < nOld; x++ {
		comp[x] = perm[old.Comp[x]]
	}
	for i := 0; i < k; i++ {
		comp[nOld+i] = perm[int32(nComp+i)]
	}
	members := make([][]int32, nTent)
	nontrivial := make([]bool, nTent)
	for c := 0; c < nComp; c++ {
		nc := perm[c]
		members[nc] = old.Members[c]
		nontrivial[nc] = old.Nontrivial[c] || flip[int32(c)]
	}
	singles := make([]int32, k)
	for i := 0; i < k; i++ {
		tc := int32(nComp + i)
		nc := perm[tc]
		singles[i] = int32(nOld + i)
		members[nc] = singles[i : i+1 : i+1]
		nontrivial[nc] = flip[tc]
	}

	succ := make([][]int32, nTent)
	pred := make([][]int32, nTent)
	succBuf := make([]int32, totalSucc)
	predBuf := make([]int32, totalSucc)
	inCnt := make([]int32, nTent)
	for c := 0; c < nTent; c++ {
		for _, s := range succTent[c] {
			inCnt[perm[s]]++
		}
	}
	off := 0
	for c := 0; c < nTent; c++ {
		pred[c] = predBuf[off : off : off+int(inCnt[c])]
		off += int(inCnt[c])
	}
	inv := make([]int32, nTent)
	for t, n := range perm {
		inv[n] = int32(t)
	}
	off = 0
	for nc := 0; nc < nTent; nc++ {
		lst := succTent[inv[nc]]
		s := succBuf[off : off+len(lst)]
		for i, os := range lst {
			s[i] = perm[os]
		}
		succ[nc] = s
		off += len(lst)
		for _, ns := range s {
			pred[ns] = append(pred[ns], int32(nc))
		}
	}

	return &Condensation{
		Comp:       comp,
		NumComps:   nTent,
		Members:    members,
		Succ:       succ,
		Pred:       pred,
		Nontrivial: nontrivial,
	}
}
