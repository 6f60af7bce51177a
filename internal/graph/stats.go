package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the structure of a graph; cmd/graphgen prints it so that
// generated datasets can be sanity-checked against the shapes the paper's
// datasets have (scale-free degrees, label alphabet size, DAG-ness of the
// citation network, and so on).
type Stats struct {
	Nodes, Edges   int
	Labels         int
	MaxOutDegree   int
	MaxInDegree    int
	AvgDegree      float64
	SCCs           int
	LargestSCC     int
	IsDAG          bool
	LabelHistogram map[string]int
}

// ComputeStats gathers Stats for g.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		Labels:         g.Dict().Size(),
		LabelHistogram: make(map[string]int),
	}
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		if d := g.OutDegree(v); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(v); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		s.LabelHistogram[g.Label(v)]++
	}
	if g.NumNodes() > 0 {
		s.AvgDegree = float64(g.NumEdges()) / float64(g.NumNodes())
	}
	cond := g.Condensation()
	s.SCCs = cond.NumComps
	s.IsDAG = true
	for c := 0; c < cond.NumComps; c++ {
		if len(cond.Members[c]) > s.LargestSCC {
			s.LargestSCC = len(cond.Members[c])
		}
		if cond.Nontrivial[c] {
			s.IsDAG = false
		}
	}
	return s
}

// String renders the stats as a small report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d edges=%d labels=%d avg-deg=%.2f max-out=%d max-in=%d sccs=%d largest-scc=%d dag=%v\n",
		s.Nodes, s.Edges, s.Labels, s.AvgDegree, s.MaxOutDegree, s.MaxInDegree, s.SCCs, s.LargestSCC, s.IsDAG)
	labels := make([]string, 0, len(s.LabelHistogram))
	for l := range s.LabelHistogram {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "  label %-16s %d\n", l, s.LabelHistogram[l])
	}
	return b.String()
}
