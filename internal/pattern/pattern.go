// Package pattern implements the pattern graphs of the paper:
// Q = (Vp, Ep, fv, uo), a directed graph whose nodes carry a search
// condition (a label plus optional attribute predicates, §2.2) and one of
// which is designated as the output node uo (marked '*' in the paper's
// figures). Patterns may be DAGs or cyclic; the analysis needed by the
// matching algorithms (SCC decomposition of Q, topological ranks r(u),
// descendants of the output node) is provided by Analyze.
package pattern

import (
	"fmt"
	"strings"

	"divtopk/internal/graph"
)

// Node is one query node: a label and zero or more attribute predicates.
// A data node v is a candidate of the query node iff the labels are equal
// and every predicate holds on v's attributes.
type Node struct {
	Label string
	Preds []Predicate
}

// Pattern is a directed pattern graph with a designated output node.
// Build one with New/AddNode/AddEdge/SetOutput, then call Validate.
type Pattern struct {
	nodes  []Node
	out    [][]int
	in     [][]int
	edges  [][2]int
	output int
}

// New returns an empty pattern with no output node set (defaults to node 0
// once nodes exist).
func New() *Pattern {
	return &Pattern{output: 0}
}

// AddNode appends a query node and returns its index.
func (p *Pattern) AddNode(label string, preds ...Predicate) int {
	p.nodes = append(p.nodes, Node{Label: label, Preds: preds})
	p.out = append(p.out, nil)
	p.in = append(p.in, nil)
	return len(p.nodes) - 1
}

// AddEdge appends the query edge (u, u'). Duplicate edges are rejected:
// pattern semantics make them meaningless and the propagation counters of
// internal/core assume distinct edges.
func (p *Pattern) AddEdge(u, v int) error {
	n := len(p.nodes)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("pattern: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	for _, w := range p.out[u] {
		if w == v {
			return fmt.Errorf("pattern: duplicate edge (%d,%d)", u, v)
		}
	}
	p.out[u] = append(p.out[u], v)
	p.in[v] = append(p.in[v], u)
	p.edges = append(p.edges, [2]int{u, v})
	return nil
}

// AddPred appends a search-condition predicate to an existing query node.
func (p *Pattern) AddPred(u int, pr Predicate) error {
	if u < 0 || u >= len(p.nodes) {
		return fmt.Errorf("pattern: AddPred on unknown node %d", u)
	}
	p.nodes[u].Preds = append(p.nodes[u].Preds, pr)
	return nil
}

// SetOutput designates u as the output node uo.
func (p *Pattern) SetOutput(u int) error {
	if u < 0 || u >= len(p.nodes) {
		return fmt.Errorf("pattern: output node %d out of range", u)
	}
	p.output = u
	return nil
}

// Output returns the index of the output node uo.
func (p *Pattern) Output() int { return p.output }

// NumNodes returns |Vp|.
func (p *Pattern) NumNodes() int { return len(p.nodes) }

// NumEdges returns |Ep|.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// Size returns |Q| = |Vp| + |Ep|.
func (p *Pattern) Size() int { return len(p.nodes) + len(p.edges) }

// Label returns the label of query node u.
func (p *Pattern) Label(u int) string { return p.nodes[u].Label }

// Preds returns the predicates of query node u.
func (p *Pattern) Preds(u int) []Predicate { return p.nodes[u].Preds }

// Out returns the children of query node u. The caller must not modify it.
func (p *Pattern) Out(u int) []int { return p.out[u] }

// In returns the parents of query node u. The caller must not modify it.
func (p *Pattern) In(u int) []int { return p.in[u] }

// Edges returns all query edges. The caller must not modify it.
func (p *Pattern) Edges() [][2]int { return p.edges }

// Validate checks structural sanity: at least one node, labels non-empty,
// and a valid output node.
func (p *Pattern) Validate() error {
	if len(p.nodes) == 0 {
		return fmt.Errorf("pattern: no nodes")
	}
	for i, n := range p.nodes {
		if n.Label == "" {
			return fmt.Errorf("pattern: node %d has empty label", i)
		}
		for _, pr := range n.Preds {
			if err := pr.validate(); err != nil {
				return fmt.Errorf("pattern: node %d: %w", i, err)
			}
		}
	}
	if p.output < 0 || p.output >= len(p.nodes) {
		return fmt.Errorf("pattern: output node %d out of range", p.output)
	}
	return nil
}

// IsDAG reports whether the pattern has no directed cycle (self-loops count
// as cycles).
func (p *Pattern) IsDAG() bool {
	a := Analyze(p)
	for _, nt := range a.Cond.Nontrivial {
		if nt {
			return false
		}
	}
	return true
}

// MatchesNode reports whether data node v satisfies the search condition of
// query node u: equal labels and all predicates true.
func (p *Pattern) MatchesNode(g *graph.Graph, u int, v graph.NodeID) bool {
	if g.Label(v) != p.nodes[u].Label {
		return false
	}
	for _, pr := range p.nodes[u].Preds {
		if !pr.Eval(g, v) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	q := New()
	for _, n := range p.nodes {
		preds := make([]Predicate, len(n.Preds))
		copy(preds, n.Preds)
		q.AddNode(n.Label, preds...)
	}
	for _, e := range p.edges {
		// Cannot fail: edges were valid in p.
		_ = q.AddEdge(e[0], e[1])
	}
	q.output = p.output
	return q
}

// String renders the pattern compactly, e.g. "PM*->DB PM*->PRG DB<->PRG".
func (p *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern(%d,%d){", len(p.nodes), len(p.edges))
	for i, n := range p.nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", i, n.Label)
		if i == p.output {
			b.WriteByte('*')
		}
		for _, pr := range n.Preds {
			fmt.Fprintf(&b, "[%s]", pr)
		}
	}
	b.WriteString(" |")
	for _, e := range p.edges {
		fmt.Fprintf(&b, " %d->%d", e[0], e[1])
	}
	b.WriteByte('}')
	return b.String()
}

// Analysis carries the derived structure the algorithms need: the SCC
// condensation of Q (Q_SCC of §4.2), per-node topological ranks, and which
// query nodes the output node reaches (its descendants, which define the
// relevant sets and the normalization constant C_uo of §3.3).
type Analysis struct {
	// Cond is the condensation of the pattern graph. Node IDs are the query
	// node indices widened to int32.
	Cond *graph.Condensation
	// Rank is the topological rank of each query node: the rank of its SCC
	// in Q_SCC (0 = leaf), as defined in §4.
	Rank []int32
	// OutputDesc[u] reports whether u is a descendant of the output node
	// (reachable from uo by a path of >= 1 edges). The output node itself is
	// a descendant only if it lies on a cycle.
	OutputDesc []bool
	// DescLabels is the set of distinct labels of the output node's
	// descendants, in first-seen order. Relevant sets only ever contain
	// nodes with these labels.
	DescLabels []string
}

// Analyze computes the Analysis of p.
func Analyze(p *Pattern) *Analysis {
	n := p.NumNodes()
	cond := graph.Condense(n, func(v int32, emit func(int32)) {
		for _, w := range p.out[v] {
			emit(int32(w))
		}
	})
	a := &Analysis{
		Cond:       cond,
		Rank:       make([]int32, n),
		OutputDesc: make([]bool, n),
	}
	for u := 0; u < n; u++ {
		a.Rank[u] = cond.Rank[cond.Comp[u]]
	}

	// Descendants of uo: BFS over query edges starting from uo's successors;
	// uo is included when revisited (i.e. it lies on a cycle).
	var queue []int
	push := func(u int) {
		if !a.OutputDesc[u] {
			a.OutputDesc[u] = true
			queue = append(queue, u)
		}
	}
	for _, w := range p.out[p.output] {
		push(w)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range p.out[u] {
			push(w)
		}
	}
	seen := map[string]bool{}
	for u := 0; u < n; u++ {
		if a.OutputDesc[u] && !seen[p.nodes[u].Label] {
			seen[p.nodes[u].Label] = true
			a.DescLabels = append(a.DescLabels, p.nodes[u].Label)
		}
	}
	return a
}
