package cfg

// State is one analysis's abstract state at a program point. States are
// treated as immutable by the driver: Transfer must return a fresh value (or
// the unchanged input), never mutate its argument in place.
type State any

// Flow configures one forward dataflow analysis over a Graph.
//
// The driver models unreached blocks with a nil State, and nil is the
// identity of Join for every analysis: for a may-analysis (union join) an
// unreached predecessor contributes nothing; for a must-analysis
// (intersection join) it is "top" — no evidence against any element — and
// must not weaken the join. Join and Equal are therefore only called with
// non-nil arguments.
type Flow struct {
	// Entry is the state on entry to the function.
	Entry State
	// Transfer computes the state after executing block b from the state
	// before it.
	Transfer func(b *Block, in State) State
	// Join merges the states of two converging paths: set intersection for a
	// must-analysis (lock held on every path), max for a worst-path count
	// (snapshot loads on some path).
	Join func(a, b State) State
	// Equal reports whether two states are equal; the fixpoint has been
	// reached when every reachable block's in-state stops changing.
	Equal func(a, b State) bool
}

// Fixpoint runs f over g with a worklist until the in-states stabilize and
// returns the in-state of every reachable block (unreachable blocks are
// absent). Blocks are processed in index order, which makes the iteration —
// and therefore any rounding of non-monotone transfer functions —
// deterministic.
func (g *Graph) Fixpoint(f Flow) map[*Block]State {
	in := make(map[*Block]State, len(g.Blocks))
	out := make(map[*Block]State, len(g.Blocks))
	in[g.Entry] = f.Entry

	inList := make([]bool, len(g.Blocks))
	work := []*Block{g.Entry}
	inList[g.Entry.Index] = true

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inList[b.Index] = false

		o := f.Transfer(b, in[b])
		prev, seen := out[b]
		if seen && f.Equal(prev, o) {
			continue
		}
		out[b] = o
		for _, s := range b.Succs {
			// Recompute s's in-state as the join over its reached preds.
			var ns State
			reached := false
			for _, p := range s.preds {
				po, ok := out[p]
				if !ok {
					continue
				}
				if !reached {
					ns, reached = po, true
				} else {
					ns = f.Join(ns, po)
				}
			}
			if !reached {
				continue
			}
			if old, ok := in[s]; ok && f.Equal(old, ns) {
				continue
			}
			in[s] = ns
			if !inList[s.Index] {
				inList[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}
