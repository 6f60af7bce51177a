package core

import (
	"sort"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// MatchBaseline is the paper's Match algorithm (§4): the "find-all-match"
// strategy. It computes the entire M(Q,G) with the simulation fixpoint, the
// exact relevance of every match of the output node, and then picks the k
// most relevant. It has the same worst-case complexity as the
// early-termination algorithms but always pays it; the experiments of §6
// measure exactly this gap. keepSets retains the relevant-set bitsets on the
// returned matches (the diversified algorithms need them; pure top-k
// callers can drop them).
func MatchBaseline(g *graph.Graph, p *pattern.Pattern, k int, keepSets bool) (*Result, error) {
	return MatchBaselineOpts(g, p, k, keepSets, Options{})
}

// MatchBaselineOpts is MatchBaseline with engine options; only
// Options.Parallelism and Options.Prebuilt are consulted (the baseline has
// no feeding strategy or bounds to tune). Candidate computation fans out
// over data-node shards, and the product adjacency is built once and shared
// between refinement and the relevant-set kernel; the result is identical
// for every worker count, and to the frozen reference kernel's
// (internal/oracle, which the tests compare against). A supplied
// Prebuilt.Pool is that result already: k only selects the Matches prefix.
func MatchBaselineOpts(g *graph.Graph, p *pattern.Pattern, k int, keepSets bool, opts Options) (*Result, error) {
	if err := validateInputs(g, k); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Prebuilt != nil && opts.Prebuilt.Pool != nil {
		res := *opts.Prebuilt.Pool
		res.Matches = res.All[:min(k, len(res.All))]
		return &res, nil
	}

	var ci *simulation.CandidateIndex
	if opts.Prebuilt != nil && opts.Prebuilt.CI != nil {
		ci = opts.Prebuilt.CI
	} else {
		ci = simulation.BuildCandidatesParallel(g, p, opts.Workers())
	}
	an := pattern.Analyze(p)

	var (
		sim  *simulation.Result
		prod *simulation.Product
	)
	if opts.Prebuilt != nil && opts.Prebuilt.Prod != nil {
		prod = opts.Prebuilt.Prod
	} else {
		prod = simulation.BuildProduct(g, p, ci, opts.Workers())
	}
	if opts.Prebuilt != nil && opts.Prebuilt.Sim != nil {
		sim = opts.Prebuilt.Sim
	} else {
		sim = simulation.ComputeWithProduct(prod)
	}
	space := simulation.BuildRelSpace(g, p, sim.CI, an)
	res := &Result{
		Space:       space,
		GlobalMatch: sim.Matched,
		Cuo:         simulation.Cuo(p, sim.CI, an),
		Stats: Stats{
			CandidatesOfOutput: len(sim.CI.Lists[p.Output()]),
			PairsTotal:         sim.CI.NumPairs(),
		},
	}
	if !sim.Matched {
		return res, nil
	}

	rel := simulation.ComputeRelevant(prod, space, sim.InSim, p.Output(), keepSets)
	lo, hi := sim.CI.PairRange(p.Output())
	for q := lo; q < hi; q++ {
		if !sim.InSim[q] {
			continue
		}
		i := q - lo
		res.All = append(res.All, Match{
			Node:      sim.CI.V[q],
			Relevance: int(rel.Sizes[i]),
			Upper:     int(rel.Sizes[i]),
			Exact:     true,
			R:         rel.Sets[i],
		})
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
