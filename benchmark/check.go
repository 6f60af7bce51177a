package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"divtopk"
	"divtopk/internal/diversify"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
)

// answer is the part of a query response the checks compare. Fields a later
// change may add to the wire format (stage timings, say) are ignored.
type answer struct {
	GlobalMatch bool          `json:"global_match"`
	Version     uint64        `json:"version"`
	F           *float64      `json:"f"`
	Matches     []answerMatch `json:"matches"`
}

type answerMatch struct {
	Node      int  `json:"node"`
	Relevance int  `json:"relevance"`
	Upper     int  `json:"upper"`
	Exact     bool `json:"exact"`
}

// sampleShapes draws the seeded sample of distinct shapes whose answers are
// re-evaluated: at least a quarter of all shapes, and whole patterns — all
// kinds of a sampled pattern — so every kind is covered and the two
// cross-kind invariants have both of their sides.
func sampleShapes(in *inputs, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec5))
	want := (len(in.patterns) + 3) / 4
	out := make(map[int]bool)
	for _, pat := range rng.Perm(len(in.patterns))[:want] {
		for k := kind(0); k < numKinds; k++ {
			out[shapeID(pat, k)] = true
		}
	}
	return out
}

// asker is either of the facade's two entry points: the package-level
// functions on a bare Graph, or a Matcher session (which has these methods).
type asker interface {
	TopK(p *divtopk.Pattern, k int, opts ...divtopk.Option) (*divtopk.Result, error)
	TopKDiversified(p *divtopk.Pattern, k int, lambda float64, opts ...divtopk.Option) (*divtopk.DiversifiedResult, error)
}

type onGraph struct{ g *divtopk.Graph }

func (o onGraph) TopK(p *divtopk.Pattern, k int, opts ...divtopk.Option) (*divtopk.Result, error) {
	return divtopk.TopK(o.g, p, k, opts...)
}

func (o onGraph) TopKDiversified(p *divtopk.Pattern, k int, lambda float64, opts ...divtopk.Option) (*divtopk.DiversifiedResult, error) {
	return divtopk.TopKDiversified(o.g, p, k, lambda, opts...)
}

// ask evaluates one shape through the facade and returns the answer in the
// wire's terms, plus the facade's own result value (*divtopk.Result or
// *divtopk.DiversifiedResult) for callers that encode it.
func ask(a asker, p *divtopk.Pattern, k kind, opts ...divtopk.Option) (*answer, any, error) {
	var (
		ans     = &answer{}
		matches []divtopk.Match
		raw     any
	)
	switch k {
	case kTopK, kMatch:
		if k == kMatch {
			opts = append(opts, divtopk.WithBaseline())
		}
		res, err := a.TopK(p, queryK, opts...)
		if err != nil {
			return nil, nil, err
		}
		ans.GlobalMatch, matches, raw = res.GlobalMatch, res.Matches, res
	default:
		if k == kTopKDiv {
			opts = append(opts, divtopk.WithApproximation())
		}
		res, err := a.TopKDiversified(p, queryK, queryLambda, opts...)
		if err != nil {
			return nil, nil, err
		}
		ans.GlobalMatch, ans.F, matches, raw = res.GlobalMatch, &res.F, res.Matches, res
	}
	ans.Matches = make([]answerMatch, len(matches))
	for i, m := range matches {
		ans.Matches[i] = answerMatch{Node: m.Node, Relevance: m.Relevance, Upper: m.Upper, Exact: m.Exact}
	}
	return ans, raw, nil
}

// reference evaluates one shape in-process through the facade, sequentially
// and with no cache, on the benchmark's own copy of the graph.
func reference(g *divtopk.Graph, p *divtopk.Pattern, k kind) (*answer, error) {
	a, _, err := ask(onGraph{g}, p, k, divtopk.Parallelism(1))
	return a, err
}

func sameAnswer(got, want *answer) error {
	if got.GlobalMatch != want.GlobalMatch {
		return fmt.Errorf("global_match %v, want %v", got.GlobalMatch, want.GlobalMatch)
	}
	if (got.F == nil) != (want.F == nil) || (got.F != nil && *got.F != *want.F) {
		return fmt.Errorf("f differs: got %v, want %v", got.F, want.F)
	}
	if len(got.Matches) != len(want.Matches) {
		return fmt.Errorf("%d matches, want %d", len(got.Matches), len(want.Matches))
	}
	for i := range got.Matches {
		if got.Matches[i] != want.Matches[i] {
			return fmt.Errorf("match %d is %+v, want %+v", i, got.Matches[i], want.Matches[i])
		}
	}
	return nil
}

// graphChain rebuilds the benchmark's copy of the graph at the versions the
// kept answers were computed against, by applying the acknowledged deltas in
// version order. Requests must come in ascending version order.
type graphChain struct {
	in    *inputs
	byVer map[uint64]acked
	cur   *divtopk.Graph
	ver   uint64
}

func newGraphChain(in *inputs, acks []acked) *graphChain {
	c := &graphChain{in: in, byVer: make(map[uint64]acked, len(acks)), cur: in.g}
	for _, a := range acks {
		c.byVer[a.ack.Version] = a
	}
	return c
}

// at returns the copy at version v. Intermediate deltas are folded with
// Delta.Merge and applied in one step, so a long burst on a large graph costs
// one rebuild of the adjacency, not one per update.
func (c *graphChain) at(v uint64) (*divtopk.Graph, error) {
	if v < c.ver {
		return nil, fmt.Errorf("graph chain asked to go back from version %d to %d", c.ver, v)
	}
	if v == c.ver {
		return c.cur, nil
	}
	var merged divtopk.Delta
	nodes := c.cur.NumNodes()
	for ver := c.ver + 1; ver <= v; ver++ {
		a, ok := c.byVer[ver]
		if !ok {
			return nil, fmt.Errorf("no acknowledged update carries version %d", ver)
		}
		op := &c.in.updates[a.op]
		if err := merged.Merge(c.cur, op.delta(nodes)); err != nil {
			return nil, fmt.Errorf("folding update of version %d: %w", ver, err)
		}
		if op.kind == opAppend {
			nodes++
		}
	}
	g2, err := divtopk.ApplyDelta(c.cur, &merged)
	if err != nil {
		return nil, err
	}
	c.cur, c.ver = g2, v
	return g2, nil
}

// checkReport counts what the checks looked at, so a run can show that every
// check ran and on how much.
type checkReport struct {
	Shapes    int            `json:"shapes_checked"`
	Kinds     map[string]int `json:"kinds_checked"`
	TopKVsAll int            `json:"topk_vs_match_checked"`
	DivVsDH   int            `json:"topkdiv_vs_topkdh_checked"`
	Acks      int            `json:"acks_checked"`
	Recovery  bool           `json:"recovery_checked"`
	Failures  []string       `json:"failures,omitempty"`
	// FRatio is the mean exact F(topkdh)/F(topkdiv) over the DivVsDH pairs:
	// the result-quality figure that belongs beside the two latencies.
	FRatio float64 `json:"f_topkdh_over_topkdiv_mean"`
}

func (cr *checkReport) fail(format string, args ...any) {
	if len(cr.Failures) < 20 {
		cr.Failures = append(cr.Failures, fmt.Sprintf(format, args...))
	}
}

// merge adds another epoch's report to this one.
func (cr *checkReport) merge(o *checkReport) {
	if cr.Kinds == nil {
		cr.Kinds = make(map[string]int)
		cr.Recovery = true // until an epoch says otherwise
	}
	if n := cr.DivVsDH + o.DivVsDH; n > 0 {
		cr.FRatio = (cr.FRatio*float64(cr.DivVsDH) + o.FRatio*float64(o.DivVsDH)) / float64(n)
	}
	cr.Shapes += o.Shapes
	for k, n := range o.Kinds {
		cr.Kinds[k] += n
	}
	cr.TopKVsAll += o.TopKVsAll
	cr.DivVsDH += o.DivVsDH
	cr.Acks += o.Acks
	cr.Recovery = cr.Recovery && o.Recovery
	for _, f := range o.Failures {
		cr.fail("%s", f)
	}
}

// checkAnswers re-evaluates every kept answer and ties the kinds together
// with the two invariants: topk's nodes carry exactly the k largest δr that
// match found, and F(topkdiv) ≥ F(topkdh)/2 (TopKDiv is a 2-approximation of
// the optimum, which TopKDH's set cannot beat).
func checkAnswers(in *inputs, keptAnswers map[int]kept, acks []acked, cr *checkReport) {
	if cr.Kinds == nil {
		cr.Kinds = make(map[string]int)
	}
	ids := make([]int, 0, len(keptAnswers))
	for id := range keptAnswers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := keptAnswers[ids[i]], keptAnswers[ids[j]]
		if a.version != b.version {
			return a.version < b.version
		}
		return ids[i] < ids[j]
	})
	chain := newGraphChain(in, acks)
	got := make(map[int]*answer, len(ids))
	graphs := make(map[int]*divtopk.Graph, len(ids))
	for _, id := range ids {
		kp := keptAnswers[id]
		sh := &in.shapes[id]
		name := fmt.Sprintf("pattern %d %s @v%d", sh.pat, kindNames[sh.kind], kp.version)
		var a answer
		if err := json.Unmarshal(kp.body, &a); err != nil {
			cr.fail("%s: undecodable answer: %v", name, err)
			continue
		}
		g, err := chain.at(kp.version)
		if err != nil {
			cr.fail("%s: %v", name, err)
			continue
		}
		want, err := reference(g, in.patterns[sh.pat].p, sh.kind)
		if err != nil {
			cr.fail("%s: reference evaluation: %v", name, err)
			continue
		}
		cr.Shapes++
		cr.Kinds[kindNames[sh.kind]]++
		if err := sameAnswer(&a, want); err != nil {
			cr.fail("%s: %v", name, err)
			continue
		}
		got[id], graphs[id] = &a, g
	}

	var fRatios []float64
	for _, id := range ids {
		sh := &in.shapes[id]
		a := got[id]
		if a == nil || !a.GlobalMatch {
			continue
		}
		g, p := graphs[id], in.patterns[sh.pat].p
		switch sh.kind {
		case kTopK:
			all, err := divtopk.TopK(g, p, queryK, divtopk.WithBaseline(), divtopk.Parallelism(1))
			if err != nil {
				cr.fail("pattern %d: find-all for the topk invariant: %v", sh.pat, err)
				continue
			}
			exact := make(map[int]int, len(all.All))
			for _, m := range all.All {
				exact[m.Node] = m.Relevance
			}
			var mine, best []int
			for _, m := range a.Matches {
				d, ok := exact[m.Node]
				if !ok {
					cr.fail("pattern %d: topk returned node %d, which match does not find", sh.pat, m.Node)
				}
				mine = append(mine, d)
			}
			for _, m := range all.Matches {
				best = append(best, m.Relevance)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(mine)))
			cr.TopKVsAll++
			if fmt.Sprint(mine) != fmt.Sprint(best) {
				cr.fail("pattern %d: exact δr of topk's nodes %v, the k largest of match are %v", sh.pat, mine, best)
			}
		case kTopKDH:
			divID := shapeID(sh.pat, kTopKDiv)
			div := got[divID]
			if div == nil || div.F == nil || keptAnswers[divID].version != keptAnswers[id].version {
				continue
			}
			nodes := make([]graph.NodeID, len(a.Matches))
			for i, m := range a.Matches {
				nodes[i] = graph.NodeID(m.Node)
			}
			fdh, err := diversify.ExactF(g.Unwrap().(*graph.Graph), p.UnwrapPattern().(*pattern.Pattern), nodes, queryLambda, queryK)
			if err != nil {
				cr.fail("pattern %d: exact F of topkdh's set: %v", sh.pat, err)
				continue
			}
			cr.DivVsDH++
			if *div.F < fdh/2 {
				cr.fail("pattern %d: F(topkdiv)=%v is below F(topkdh)/2=%v", sh.pat, *div.F, fdh/2)
			}
			if *div.F > 0 {
				fRatios = append(fRatios, fdh / *div.F)
			}
		}
	}
	cr.FRatio = mean(fRatios)
}
