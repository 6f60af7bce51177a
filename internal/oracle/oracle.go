// Package oracle is the find-all Match algorithm evaluated by the frozen
// pre-CSR reference kernel (simulation.ComputeReference and
// ComputeRelevantReference), composed into the result shape of
// core.MatchBaselineOpts. It exists for tests only — the kernel determinism
// and delta-chain properties compare every shipped evaluation path against
// it byte for byte — and must be imported from _test.go files alone: no
// command, option or shipped code path reaches the reference kernel.
package oracle

import (
	"sort"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// MatchBaseline computes what core.MatchBaselineOpts(g, p, k, true, ...)
// must return, through the reference kernel. ci, when non-nil, supplies the
// candidate index (a test checking maintained candidates passes them in);
// fixpoint and relevant sets are always recomputed — that is the point.
func MatchBaseline(g *graph.Graph, p *pattern.Pattern, k int, ci *simulation.CandidateIndex) (*core.Result, error) {
	if k < 1 {
		return nil, core.ErrBadK
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ci == nil {
		ci = simulation.BuildCandidates(g, p)
	}
	an := pattern.Analyze(p)
	sim := simulation.ComputeReference(g, p, ci)
	space := simulation.BuildRelSpace(g, p, ci, an)
	res := &core.Result{
		Space:       space,
		GlobalMatch: sim.Matched,
		Cuo:         simulation.Cuo(p, ci, an),
		Stats: core.Stats{
			CandidatesOfOutput: len(ci.Lists[p.Output()]),
			PairsTotal:         ci.NumPairs(),
		},
	}
	if !sim.Matched {
		return res, nil
	}
	rel := simulation.ComputeRelevantReference(g, p, ci, an, space, sim.InSim, p.Output(), true)
	lo, hi := ci.PairRange(p.Output())
	for q := lo; q < hi; q++ {
		if !sim.InSim[q] {
			continue
		}
		size := int(rel.Sizes[q-lo])
		res.All = append(res.All, core.Match{Node: ci.V[q], Relevance: size, Upper: size, Exact: true, R: rel.Sets[q-lo]})
	}
	sort.Slice(res.All, func(i, j int) bool {
		if res.All[i].Relevance != res.All[j].Relevance {
			return res.All[i].Relevance > res.All[j].Relevance
		}
		return res.All[i].Node < res.All[j].Node
	})
	res.Stats.MatchesFound = len(res.All)
	res.Matches = res.All[:min(k, len(res.All))]
	return res, nil
}
