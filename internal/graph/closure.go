package graph

// ExpandComps computes the closure of seeds over a condensation's component
// adjacency (Succ for descendant closures, Pred for ancestor closures): it
// seeds the worklist with the unmarked entries of seeds, marks membership in
// in (which must be sized NumComps), and expands the worklist in append
// order, so the returned closure comes out in a deterministic discovery
// order — which the bound index's byte-identical maintenance relies on.
// core.BoundsCache.Advance computes the ancestor and descendant closures of
// a delta's dirty components with it.
func ExpandComps(seeds []int32, adjacency [][]int32, in []bool) []int32 {
	var wl []int32
	for _, c := range seeds {
		if !in[c] {
			in[c] = true
			wl = append(wl, c)
		}
	}
	for i := 0; i < len(wl); i++ {
		for _, w := range adjacency[wl[i]] {
			if !in[w] {
				in[w] = true
				wl = append(wl, w)
			}
		}
	}
	return wl
}
