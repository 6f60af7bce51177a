package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"divtopk"
)

// The four query kinds of the paper's §6: TopK against the find-all Match,
// and the heuristic TopKDH against the 2-approximation TopKDiv.
type kind int

const (
	kTopK kind = iota
	kMatch
	kTopKDH
	kTopKDiv
	numKinds
)

var kindNames = [numKinds]string{"topk", "match", "topkdh", "topkdiv"}

const (
	queryK      = 10
	queryLambda = 0.5
	graphName   = "g"
)

// graphCfg sizes one generated data graph.
type graphCfg struct {
	youtube bool // YouTube-like (10 categories, A/V/R attributes) instead of synthetic
	nodes   int
	edges   int
	labels  int // synthetic only
}

func (c graphCfg) generate(seed int64) *divtopk.Graph {
	if c.youtube {
		return divtopk.NewYouTubeLike(c.nodes, c.edges, seed)
	}
	return divtopk.NewSynthetic(c.nodes, c.edges, c.labels, seed)
}

// patternInput is one mined pattern: the request text the daemon receives,
// the parsed facade value the checks evaluate, and its label structure, which
// aims the deltas.
type patternInput struct {
	text   string
	p      *divtopk.Pattern
	labels []string
	edges  [][2]int
}

// shape is one distinct query: a pattern asked under one kind. Its request
// body is marshalled once, so the load loop only sends bytes.
type shape struct {
	pat  int
	kind kind
	path string
	body []byte
}

type queryBody struct {
	Graph    string  `json:"graph"`
	Pattern  string  `json:"pattern"`
	K        int     `json:"k"`
	Lambda   float64 `json:"lambda,omitempty"`
	Approx   bool    `json:"approx,omitempty"`
	Baseline bool    `json:"baseline,omitempty"`
}

func newShape(pat int, text string, k kind) shape {
	b := queryBody{Graph: graphName, Pattern: text, K: queryK}
	path := "/v1/query"
	switch k {
	case kMatch:
		b.Baseline = true
	case kTopKDH:
		path, b.Lambda = "/v1/query/diversified", queryLambda
	case kTopKDiv:
		path, b.Lambda, b.Approx = "/v1/query/diversified", queryLambda, true
	}
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return shape{pat: pat, kind: k, path: path, body: body}
}

// minePatterns mines n distinct instance-guided patterns from g: |Vp| cycles
// through 4, 5, 6; every second one is cyclic; with preds, every third one
// carries attribute predicates (the paper's YouTube search conditions; the
// synthetic graphs have no attributes to predicate on).
func minePatterns(g *divtopk.Graph, n int, preds bool, seed int64) ([]patternInput, error) {
	var out []patternInput
	seen := make(map[string]bool)
	for i, tries := 0, 0; len(out) < n; tries++ {
		if tries > 40*n {
			return nil, fmt.Errorf("mined only %d of %d patterns after %d tries", len(out), n, tries)
		}
		nodes := 4 + i%3
		edges := nodes + 1 + (i/3)%2
		p, err := divtopk.GeneratePattern(g, nodes, edges, i%2 == 1, preds && i%3 == 0, seed*1_000_003+int64(tries))
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := divtopk.WritePattern(&buf, p); err != nil {
			return nil, err
		}
		text := buf.String()
		if seen[text] {
			continue
		}
		seen[text] = true
		pi := patternInput{text: text, p: p}
		if err := pi.parseStructure(); err != nil {
			return nil, err
		}
		out = append(out, pi)
		i++
	}
	return out, nil
}

// parseStructure reads node labels and edges back out of the pattern text
// ("node <i> <label> [*] [preds...]", "edge <u> <v>"): the facade does not
// expose them, and the request text is what the daemon sees anyway.
func (pi *patternInput) parseStructure() error {
	for _, line := range strings.Split(pi.text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "node":
			pi.labels = append(pi.labels, f[2])
		case len(f) == 3 && f[0] == "edge":
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("pattern text: bad edge line %q", line)
			}
			pi.edges = append(pi.edges, [2]int{u, v})
		}
	}
	if len(pi.labels) == 0 || len(pi.edges) == 0 {
		return fmt.Errorf("pattern text has no nodes or no edges:\n%s", pi.text)
	}
	return nil
}

// zipf draws pattern ranks 0..n-1 with weight 1/(rank+1)^s by inverting the
// cumulative table (math/rand's Zipf needs s > 1 and has no finite support).
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// opKind is the delta mix of the issue: 60 % append a node, 20 % insert an
// edge, 20 % delete an edge this run inserted.
type opKind int

const (
	opAppend opKind = iota
	opInsert
	opDelete
)

// updateOp is one pre-generated update: the request body the daemon receives
// and the same delta in facade terms for the benchmark's own copy of the
// graph. dep is the op whose ack must precede this one (a delete names the
// insert it undoes), -1 for none.
type updateOp struct {
	kind  opKind
	body  []byte
	dep   int
	label string         // append: the new node's label
	attrs []divtopk.Attr // append: its attributes (YouTube-like graphs)
	edge  [2]int         // insert/delete: the edge; append: edge[0] is the parent
}

type updateBody struct {
	AddNodes []updateNode `json:"add_nodes,omitempty"`
	AddEdges [][2]int     `json:"add_edges,omitempty"`
	DelEdges [][2]int     `json:"del_edges,omitempty"`
}

type updateNode struct {
	Label string         `json:"label"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// deleteLag keeps a delete this many ops behind the insert it undoes, so
// that with closed-loop writers taking ops in order the insert has long been
// acknowledged when the delete is due; the writer still waits on dep.
const deleteLag = 32

// planUpdates pre-generates n updates aimed at the hot patterns' labels, as
// a pure function of the seed and the initial graph. Every edge is used at
// most once per run (never re-inserted after its delete), so concurrent
// writers cannot race an insert against the delete of the same edge, and no
// update can fail.
func planUpdates(g *divtopk.Graph, hot []patternInput, youtube bool, n int, seed int64) []updateOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0de17a))
	byLabel := make(map[string][]int)
	for v := 0; v < g.NumNodes(); v++ {
		l := g.Label(v)
		byLabel[l] = append(byLabel[l], v)
	}
	type labelEdge struct{ parent, child string }
	var pairs []labelEdge
	for _, p := range hot {
		for _, e := range p.edges {
			pairs = append(pairs, labelEdge{p.labels[e[0]], p.labels[e[1]]})
		}
	}
	used := make(map[[2]int]bool)
	var live []int // indices of insert ops not yet deleted
	ops := make([]updateOp, 0, n)
	for i := 0; i < n; i++ {
		le := pairs[rng.Intn(len(pairs))]
		parents, children := byLabel[le.parent], byLabel[le.child]
		op := updateOp{dep: -1}
		switch r := rng.Intn(10); {
		case r < 6:
			op.kind = opAppend
		case r < 8:
			op.kind = opInsert
		default:
			op.kind = opDelete
			if len(live) == 0 || live[0] > i-deleteLag {
				op.kind = opInsert // nothing old enough to delete yet
			}
		}
		var b updateBody
		switch op.kind {
		case opAppend:
			op.label = le.child
			op.edge = [2]int{parents[rng.Intn(len(parents))], -1}
			node := updateNode{Label: op.label}
			if youtube {
				a, v, r := 1+rng.Int63n(2000), 100+rng.Int63n(400_000), 1+rng.Int63n(5)
				op.attrs = []divtopk.Attr{divtopk.Str("C", op.label), divtopk.Int("A", a), divtopk.Int("V", v), divtopk.Int("R", r)}
				node.Attrs = map[string]any{"C": op.label, "A": a, "V": v, "R": r}
			}
			b.AddNodes = []updateNode{node}
			b.AddEdges = [][2]int{op.edge}
		case opInsert:
			for {
				e := [2]int{parents[rng.Intn(len(parents))], children[rng.Intn(len(children))]}
				if e[0] != e[1] && !used[e] {
					used[e] = true
					op.edge = e
					break
				}
			}
			live = append(live, i)
			b.AddEdges = [][2]int{op.edge}
		case opDelete:
			// Undo a random insert that is at least deleteLag ops old; live is
			// ascending, so the eligible ones form a prefix.
			eligible := 0
			for eligible < len(live) && live[eligible] <= i-deleteLag {
				eligible++
			}
			j := rng.Intn(eligible)
			op.dep = live[j]
			op.edge = ops[op.dep].edge
			live = append(live[:j], live[j+1:]...)
			b.DelEdges = [][2]int{op.edge}
		}
		body, err := json.Marshal(b)
		if err != nil {
			panic(err) // plain strings and integers always marshal
		}
		op.body = body
		ops = append(ops, op)
	}
	return ops
}

// delta renders op in facade terms; firstNode is the ID the daemon's ack
// assigned to the op's appended node (ignored for edge ops).
func (op *updateOp) delta(firstNode int) *divtopk.Delta {
	var d divtopk.Delta
	switch op.kind {
	case opAppend:
		d.AddNode(op.label, op.attrs...)
		d.InsertEdge(op.edge[0], firstNode)
	case opInsert:
		d.InsertEdge(op.edge[0], op.edge[1])
	case opDelete:
		d.DeleteEdge(op.edge[0], op.edge[1])
	}
	return &d
}

// inputs is everything one run generates from its seed.
type inputs struct {
	g         *divtopk.Graph // the benchmark's own copy, version 0
	graphPath string         // the text file handed to the daemon
	patterns  []patternInput // rank order: patterns[0] is the most popular
	shapes    []shape        // patterns × the four kinds; see shapeID
	updates   []updateOp
}

// shapeID is the index in inputs.shapes of pattern pat asked under kind k.
func shapeID(pat int, k kind) int { return pat*int(numKinds) + int(k) }

// writeGraph serializes g through the facade to path.
func writeGraph(g *divtopk.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := divtopk.WriteGraph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
