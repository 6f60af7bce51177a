package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// byteReader hands out the bytes of a fuzz input one at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// edgesOf lists g's edges in CSR order: the order decodeRegionCase's
// delete indexes refer to.
func edgesOf(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, w := range g.Out(v) {
			out = append(out, [2]graph.NodeID{v, w})
		}
	}
	return out
}

// decodeGraphPattern reads a graph of at most 32 nodes and a pattern of at
// most 4 nodes (self-loops and cycles allowed) from r, each count taken
// modulo its bound: the label count (≤ 16); the node count and one label
// byte per node; the edge count and one byte pair per edge; the query node
// count, its label bytes, the output and, behind their count, one byte per
// query edge (source in the high nibble, target in the low one). It also
// returns the label count.
func decodeGraphPattern(r *byteReader) (*graph.Graph, *pattern.Pattern, int) {
	labels := 1 + r.next()%16
	label := func(l int) string { return "L" + strconv.Itoa(l) }
	n := 1 + r.next()%32
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(label(r.next()%labels), nil)
	}
	for m := r.next(); m > 0; m-- {
		_ = b.AddEdge(graph.NodeID(r.next()%n), graph.NodeID(r.next()%n))
	}
	g := b.Build()

	p := pattern.New()
	nq := 1 + r.next()%4
	for i := 0; i < nq; i++ {
		p.AddNode(label(r.next() % labels))
	}
	_ = p.SetOutput(r.next() % nq)
	for m := r.next(); m > 0; m-- {
		e := r.next()
		_ = p.AddEdge((e>>4)%nq, (e&15)%nq)
	}
	return g, p, labels
}

// decodeRegionCase reads a graph and a pattern as decodeGraphPattern does,
// then a delta against the graph: the appended nodes' labels (one more label
// than the graph has, so an append may bring a new one), the inserted edges
// over old and appended nodes, and the deleted edges as indexes into
// edgesOf — each list behind its count, taken modulo 4, 16 and 4. Deletes of
// an edge already deleted or also inserted are dropped.
func decodeRegionCase(data []byte) (*graph.Graph, *pattern.Pattern, *graph.Delta) {
	r := byteReader(data)
	g, p, labels := decodeGraphPattern(&r)
	label := func(l int) string { return "L" + strconv.Itoa(l) }
	n := g.NumNodes()

	var d graph.Delta
	for a := r.next() % 4; a > 0; a-- {
		d.AddNode(label(r.next()%(labels+1)), nil)
	}
	nNew := n + len(d.NodeAppends)
	for m := r.next() % 16; m > 0; m-- {
		d.InsertEdge(graph.NodeID(r.next()%nNew), graph.NodeID(r.next()%nNew))
	}
	edges := edgesOf(g)
	for m := r.next() % 4; m > 0 && len(edges) > 0; m-- {
		e := edges[r.next()%len(edges)]
		if !slices.Contains(d.EdgeDeletes, e) && !slices.Contains(d.EdgeInserts, e) {
			d.DeleteEdge(e[0], e[1])
		}
	}
	return g, p, &d
}

// labelByte is the index i of a label "L<i>".
func labelByte(s string) byte {
	i, err := strconv.Atoi(s[1:])
	if err != nil {
		panic(err)
	}
	return byte(i)
}

// encodeGraphPattern is decodeGraphPattern's inverse for inputs within its
// bounds whose labels are all "L<i>", i < labels.
func encodeGraphPattern(labels int, g *graph.Graph, p *pattern.Pattern) []byte {
	edges := edgesOf(g)
	out := []byte{byte(labels - 1), byte(g.NumNodes() - 1)}
	for v := 0; v < g.NumNodes(); v++ {
		out = append(out, labelByte(g.Label(graph.NodeID(v))))
	}
	out = append(out, byte(len(edges)))
	for _, e := range edges {
		out = append(out, byte(e[0]), byte(e[1]))
	}
	out = append(out, byte(p.NumNodes()-1))
	for u := 0; u < p.NumNodes(); u++ {
		out = append(out, labelByte(p.Label(u)))
	}
	out = append(out, byte(p.Output()), byte(p.NumEdges()))
	for _, e := range p.Edges() {
		out = append(out, byte(e[0]<<4|e[1]))
	}
	return out
}

// encodeRegionCase is decodeRegionCase's inverse for inputs within its
// bounds whose labels are all "L<i>", i < labels.
func encodeRegionCase(labels int, g *graph.Graph, p *pattern.Pattern, d *graph.Delta) []byte {
	edges := edgesOf(g)
	out := append(encodeGraphPattern(labels, g, p), byte(len(d.NodeAppends)))
	for _, a := range d.NodeAppends {
		out = append(out, labelByte(a.Label))
	}
	out = append(out, byte(len(d.EdgeInserts)))
	for _, e := range d.EdgeInserts {
		out = append(out, byte(e[0]), byte(e[1]))
	}
	out = append(out, byte(len(d.EdgeDeletes)))
	for _, e := range d.EdgeDeletes {
		out = append(out, byte(slices.Index(edges, e)))
	}
	return out
}

// FuzzIncComputeRegion holds simulation.IncCompute's output-region verdict to
// its promise: whenever it reports that the delta did not reach the region
// (IncStats.OutputReached false), the find-all evaluation of the old and the
// new snapshot agree on everything a find-all answer carries — the matches in
// order, their δr, their relevant sets as data nodes, C_uo, whether G matches
// Q, and the candidate count of the output node. The seeds are the
// delta-sequence fixtures of the incremental tests (their random graph,
// pattern and delta generators at 4 and 16 labels), capped at 32 nodes, and
// one delta that kills the only match (L0 → L1 loses its edge), which the
// region reaches through liveness alone.
func FuzzIncComputeRegion(f *testing.F) {
	for _, labels := range []int{4, 16} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := core.RandomAdvGraph(rng, 24+rng.Intn(9), 90+rng.Intn(120), labels, graph.NewDict())
			p := randomPrebuiltPattern(rng, labels)
			d := core.RandomAdvDelta(rng, g, labels)
			data := encodeRegionCase(labels, g, p, d)
			g2, p2, d2 := decodeRegionCase(data)
			if !reflect.DeepEqual(edgesOf(g2), edgesOf(g)) || p2.String() != p.String() || !reflect.DeepEqual(d2, d) {
				f.Fatalf("labels %d seed %d: the seed does not decode to its fixture", labels, seed)
			}
			f.Add(data)
		}
	}
	b := graph.NewBuilder()
	_ = b.AddEdge(b.AddNode("L0", nil), b.AddNode("L1", nil))
	p := pattern.New()
	_ = p.AddEdge(p.AddNode("L0"), p.AddNode("L1"))
	var d graph.Delta
	d.DeleteEdge(0, 1)
	f.Add(encodeRegionCase(2, b.Build(), p, &d))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, d := decodeRegionCase(data)
		g2, err := graph.ApplyDelta(g, d)
		if err != nil {
			return
		}
		st := simulation.NewIncState(g, p, 0)
		_, ist, err := simulation.IncCompute(st, g2, d, simulation.IncOptions{RecomputeRatio: 1})
		if err != nil || ist.OutputReached {
			return // an empty candidate space falls back even at ratio 1
		}
		before, err := core.MatchBaseline(g, p, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		after, err := core.MatchBaseline(g2, p, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		summary := func(r *core.Result) string {
			s := fmt.Sprintf("Cuo %d, GlobalMatch %v, candidates %d, matches", r.Cuo, r.GlobalMatch, r.Stats.CandidatesOfOutput)
			for _, m := range r.All {
				s += fmt.Sprintf(" %d(δr %d, R %v)", m.Node, m.Relevance, r.Space.NodesOf(m.R))
			}
			return s
		}
		if b, a := summary(before), summary(after); b != a {
			t.Fatalf("delta %+v reported outside the output region, but the find-all answer moved:\nbefore %s\nafter  %s", d, b, a)
		}
	})
}
