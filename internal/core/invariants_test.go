package core

import (
	"math/rand"
	"testing"

	"divtopk/internal/bitset"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
	"divtopk/internal/testutil"
)

// checkInvariants validates the engine's internal consistency after a run:
// every counter, status flag and bound must agree with a from-scratch
// recomputation against the simulation oracle. This is the white-box
// complement to the black-box oracle tests: it catches bookkeeping bugs
// that happen to produce correct top-k answers by luck.
func checkInvariants(t *testing.T, e *engine) {
	t.Helper()
	sim := simulation.ComputeWithProduct(simulation.BuildProduct(e.g, e.p, e.ci, 0))

	for q := int32(0); q < int32(e.ci.NumPairs()); q++ {
		u := int(e.ci.U[q])
		v := e.ci.V[q]
		inSim := sim.InSim[q]

		// I1: matched pairs are in the simulation relation; dead pairs are
		// not. (Unknown pairs can be either: not yet resolved.)
		switch e.status[q] {
		case statusMatched:
			if !inSim {
				t.Fatalf("I1: matched pair (%d,%d) not in simulation", u, v)
			}
		case statusDead:
			if inSim {
				t.Fatalf("I1: dead pair (%d,%d) is in simulation", u, v)
			}
		}

		// I2: satCnt[slot] counts exactly the matched successors per edge;
		// satEdges counts the satisfied edges.
		if e.status[q] != statusDead {
			satEdges := int32(0)
			for j, uc := range e.p.Out(u) {
				want := int32(0)
				for _, w := range e.g.Out(v) {
					qc := e.ci.Pair(uc, w)
					if qc >= 0 && e.status[qc] == statusMatched {
						want++
					}
				}
				got := e.satCnt[e.base[q]+int32(j)]
				if got != want {
					t.Fatalf("I2: satCnt(%d,%d edge %d) = %d, want %d", u, v, j, got, want)
				}
				if want > 0 {
					satEdges++
				}
			}
			if e.satEdges[q] != satEdges {
				t.Fatalf("I2: satEdges(%d,%d) = %d, want %d", u, v, e.satEdges[q], satEdges)
			}
		}

		// I3: unfinCnt[slot] counts the not-yet-finalized successors.
		for j, uc := range e.p.Out(u) {
			want := int32(0)
			for _, w := range e.g.Out(v) {
				qc := e.ci.Pair(uc, w)
				if qc >= 0 && !e.finalized[qc] {
					want++
				}
			}
			if got := e.unfinCnt[e.base[q]+int32(j)]; got != want {
				t.Fatalf("I3: unfinCnt(%d,%d edge %d) = %d, want %d", u, v, j, got, want)
			}
		}

		// I4: every matched relevance-tracked pair holds a set of exactly
		// the size of its closure over the currently matched product — the
		// R phase recomputes only the ancestors of new matches and reads
		// every other set as stored, which is sound only if stored sets are
		// exact — and a finalized one's equals R(u,v) over the full
		// simulation relation.
		if e.tracked[q] && e.status[q] == statusMatched {
			rs := e.rwords(q)
			if rs == nil {
				t.Fatalf("I4: matched tracked pair (%d,%d) holds no set", u, v)
			}
			exact := simulation.RelevantSetNaive(e.g, e.p, e.ci, matchedMask(e), u, v)
			got := bitset.CountWords(rs)
			if got != exact.Count() {
				t.Fatalf("I4: R(%d,%d) = %d, want current-matched closure %d",
					u, v, got, exact.Count())
			}
			if e.finalized[q] {
				// Finalized: must equal R over the FULL simulation relation
				// (no further growth possible).
				full := simulation.RelevantSetNaive(e.g, e.p, e.ci, sim.InSim, u, v)
				if got != full.Count() {
					t.Fatalf("I4: finalized R(%d,%d) = %d, want %d", u, v, got, full.Count())
				}
			}
		}
	}

	// I5: matchCnt/aliveCnt agree with statuses.
	for u := 0; u < e.nq; u++ {
		lo, hi := e.ci.PairRange(u)
		matched, alive := int32(0), int32(0)
		for q := lo; q < hi; q++ {
			if e.status[q] == statusMatched {
				matched++
			}
			if e.status[q] != statusDead {
				alive++
			}
		}
		if e.matchCnt[u] != matched || e.aliveCnt[u] != alive {
			t.Fatalf("I5: counts for query node %d: match %d/%d alive %d/%d",
				u, e.matchCnt[u], matched, e.aliveCnt[u], alive)
		}
	}

	// I6: finalized units have no unresolved pairs.
	for c := 0; c < e.nUnits; c++ {
		if !e.unitFinalized[c] {
			continue
		}
		for _, u := range e.unitNodes[c] {
			lo, hi := e.ci.PairRange(int(u))
			for q := lo; q < hi; q++ {
				if e.status[q] == statusUnknown {
					t.Fatalf("I6: finalized unit %d has unresolved pair (%d,%d)", c, u, e.ci.V[q])
				}
			}
		}
	}
	// I7: relevant sets live only on tracked pairs, and every matched pair
	// a matched output pair reaches through matched pairs is tracked and
	// holds one.
	reached := make([]bool, e.ci.NumPairs())
	var stack []int32
	for q := e.uoLo; q < e.uoHi; q++ {
		if e.status[q] == statusMatched {
			reached[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, qc := range e.prod.Succs(q) {
			if !reached[qc] && e.status[qc] == statusMatched {
				reached[qc] = true
				stack = append(stack, qc)
			}
		}
	}
	for q := int32(0); q < int32(len(reached)); q++ {
		has := e.rwords(q) != nil
		if reached[q] && (!e.tracked[q] || !has) || !e.tracked[q] && has {
			t.Fatalf("I7: pair (%d,%d) reached=%v tracked=%v has set=%v",
				e.ci.U[q], e.ci.V[q], reached[q], e.tracked[q], has)
		}
	}
}

// matchedMask returns the alive mask of currently matched pairs.
func matchedMask(e *engine) []bool {
	mask := make([]bool, e.ci.NumPairs())
	for q := range mask {
		mask[q] = e.status[q] == statusMatched
	}
	return mask
}

func TestEngineInvariantsAfterRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(16)
		g := testutil.RandomGraph(rng, n, rng.Intn(4*n), labels)
		var p *pattern.Pattern
		if trial%2 == 0 {
			p = testutil.RandomPattern(rng, 1+rng.Intn(4), rng.Intn(4), labels, true)
		} else {
			p = testutil.NonRootPattern(rng, 2+rng.Intn(3), rng.Intn(3), labels, false)
		}
		opts := Options{
			Strategy:   Strategy(trial % 2),
			Seed:       int64(trial),
			NumBatches: 1 + rng.Intn(5),
			Bounds:     BoundMode(trial % 3),
		}
		e, err := newEngine(g, p, 1+rng.Intn(3), opts)
		if err != nil {
			t.Fatal(err)
		}
		if e.abortedEmpty {
			continue
		}
		// Drive batches manually, checking invariants after every batch.
		for batch := 0; ; batch++ {
			b := e.feeder.next(e)
			if len(b) == 0 {
				break
			}
			for _, q := range b {
				e.feed(q)
			}
			e.drainEvents()
			e.propagateRelevance()
			checkInvariants(t, e)
			if e.abortedEmpty {
				break
			}
			if e.checkTermination() {
				break
			}
		}
	}
}

func TestEngineInvariantsFigure1(t *testing.T) {
	g, _ := testutil.Figure1()
	for _, p := range []*pattern.Pattern{testutil.Figure1Pattern(), testutil.Example7Pattern()} {
		e, err := newEngine(g, p, 2, Options{NumBatches: 2})
		if err != nil {
			t.Fatal(err)
		}
		for {
			b := e.feeder.next(e)
			if len(b) == 0 {
				break
			}
			for _, q := range b {
				e.feed(q)
			}
			e.drainEvents()
			e.propagateRelevance()
			checkInvariants(t, e)
		}
		// Exhausted runs must leave everything finalized.
		for q := int32(0); q < int32(e.ci.NumPairs()); q++ {
			if !e.finalized[q] {
				t.Fatalf("pattern %s: pair (%d,%d) unfinalized after exhaustion",
					p, e.ci.U[q], e.ci.V[q])
			}
		}
	}
}
