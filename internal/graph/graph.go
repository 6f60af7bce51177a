// Package graph implements the data-graph substrate of the paper: directed
// graphs G = (V, E, L) whose nodes carry a label from a finite alphabet Σ and,
// optionally, typed attributes (the "multiple attributes" extension of §2.2
// that the paper's YouTube/Amazon/Citation patterns rely on, e.g. C="music",
// R>2, V>5000).
//
// Graphs are built with a Builder and immutable afterwards. Adjacency is
// stored in CSR (compressed sparse row) form, in both directions: the
// matching algorithms traverse successors when evaluating pattern edges and
// predecessors when propagating match and relevance information upward.
// Attributes are stored flat, per chunk of nodes (attrs.go), so that a
// graph costs the collector a few objects per thousand nodes.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node of a data graph. IDs are dense: a graph with n
// nodes uses exactly the IDs 0..n-1.
type NodeID = int32

// LabelID identifies an interned label of a Dict.
type LabelID int32

// ValueKind discriminates the type of an attribute Value.
type ValueKind uint8

// The supported attribute kinds.
const (
	KindInt ValueKind = iota
	KindString
)

// Value is a typed attribute value attached to a node.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// IntValue returns an integer attribute value.
func IntValue(v int64) Value { return Value{Kind: KindInt, Int: v} }

// StrValue returns a string attribute value.
func StrValue(s string) Value { return Value{Kind: KindString, Str: s} }

// String renders the value for debugging and the text file format.
func (v Value) String() string {
	if v.Kind == KindInt {
		return fmt.Sprintf("%d", v.Int)
	}
	return v.Str
}

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(w Value) bool { return v == w }

// Dict interns label strings to dense LabelIDs so that label comparisons in
// the inner matching loops are integer comparisons.
//
// A Dict is safe for concurrent use: NewBuilderWithDict shares one dict
// across builders, and ApplyDelta interns the labels of appended nodes into
// the dict aliased by the live graph being served, so Intern may run while
// queries resolve labels through ID/Name/Names. Reads sit on per-node hot
// paths (candidate filtering resolves a label per examined node), so they
// are lock-free: the dictionary state is an immutable snapshot behind an
// atomic pointer, and Intern — rare, label alphabets are tiny — publishes a
// fresh copy. Interned labels are never removed or renumbered, so a LabelID
// obtained once stays valid forever.
type Dict struct {
	mu    sync.Mutex // serializes Intern; readers never take it
	state atomic.Pointer[dictState]
}

// dictState is one immutable snapshot of the dictionary.
type dictState struct {
	byName map[string]LabelID
	names  []string
}

// NewDict returns an empty label dictionary.
func NewDict() *Dict {
	d := &Dict{}
	d.state.Store(&dictState{byName: make(map[string]LabelID)})
	return d
}

// Intern returns the ID for name, assigning a fresh one if needed.
func (d *Dict) Intern(name string) LabelID {
	if id, ok := d.state.Load().byName[name]; ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	if id, ok := st.byName[name]; ok {
		return id
	}
	id := LabelID(len(st.names))
	byName := make(map[string]LabelID, len(st.byName)+1)
	for k, v := range st.byName {
		byName[k] = v
	}
	byName[name] = id
	names := make([]string, len(st.names), len(st.names)+1)
	copy(names, st.names)
	d.state.Store(&dictState{byName: byName, names: append(names, name)})
	return id
}

// ID returns the ID for name and whether it is known.
func (d *Dict) ID(name string) (LabelID, bool) {
	id, ok := d.state.Load().byName[name]
	return id, ok
}

// Name returns the label string for id.
func (d *Dict) Name(id LabelID) string { return d.state.Load().names[id] }

// Size returns the number of interned labels.
func (d *Dict) Size() int { return len(d.state.Load().names) }

// Names returns all interned labels in ID order. The caller must not modify
// the returned slice; Intern publishes fresh snapshots and never writes
// into a published one.
func (d *Dict) Names() []string { return d.state.Load().names }

// Graph is an immutable directed labeled graph. Use a Builder to create one,
// or ApplyDelta to derive the next version of an existing one: dynamic
// workloads are modeled as a sequence of immutable snapshots, each carrying a
// monotonically increasing Version.
type Graph struct {
	n      int
	m      int
	labels []LabelID
	attrs  attrTable
	dict   *Dict

	outOff []int32
	outAdj []NodeID
	inOff  []int32
	inAdj  []NodeID

	byLabel map[LabelID][]NodeID

	// version counts the deltas applied since the Builder snapshot: Build
	// returns version 0 and every ApplyDelta increments it by one.
	version uint64

	// cond caches the snapshot's SCC condensation: graphs are immutable, so
	// it is computed at most once and shared by every consumer (the
	// descendant-label index fills all its labels from one condensation, and
	// incremental index maintenance diffs the cached condensations of two
	// adjacent snapshots instead of recomputing either side).
	condOnce sync.Once
	cond     *Condensation
	condSet  atomic.Bool
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// Version returns the graph's snapshot version: 0 for a freshly built graph,
// and one more than its predecessor for every graph produced by ApplyDelta.
// Versions order the snapshots of one update lineage; they are not unique
// across unrelated graphs.
func (g *Graph) Version() uint64 { return g.version }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// Size returns |G| = |V| + |E|, the size measure used throughout the paper.
func (g *Graph) Size() int { return g.n + g.m }

// Dict returns the label dictionary of the graph.
func (g *Graph) Dict() *Dict { return g.dict }

// LabelIDOf returns the interned label of node v.
func (g *Graph) LabelIDOf(v NodeID) LabelID { return g.labels[v] }

// Label returns the label string of node v.
func (g *Graph) Label(v NodeID) string { return g.dict.Name(g.labels[v]) }

// Out returns the successors of v. The caller must not modify the slice.
func (g *Graph) Out(v NodeID) []NodeID { return g.outAdj[g.outOff[v]:g.outOff[v+1]] }

// In returns the predecessors of v. The caller must not modify the slice.
func (g *Graph) In(v NodeID) []NodeID { return g.inAdj[g.inOff[v]:g.inOff[v+1]] }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Attr returns the attribute value stored under key for node v.
func (g *Graph) Attr(v NodeID, key string) (Value, bool) { return g.attrs.get(v, key) }

// AttrKeys returns the attribute keys of node v in sorted order.
func (g *Graph) AttrKeys(v NodeID) []string {
	var keys []string
	g.attrs.each(v, func(k string, _ Value) { keys = append(keys, k) })
	return keys
}

// NodesWithLabelID returns all nodes labeled l, in ascending ID order.
// The caller must not modify the returned slice.
func (g *Graph) NodesWithLabelID(l LabelID) []NodeID { return g.byLabel[l] }

// NodesWithLabel returns all nodes whose label string is name.
func (g *Graph) NodesWithLabel(name string) []NodeID {
	id, ok := g.dict.ID(name)
	if !ok {
		return nil
	}
	return g.byLabel[id]
}

// Condensation returns the SCC condensation of the graph's out-adjacency,
// computed on first use and cached for the snapshot's lifetime (graphs are
// immutable, so the condensation never invalidates). Safe for concurrent
// use; concurrent first callers wait for the single computation.
func (g *Graph) Condensation() *Condensation {
	g.condOnce.Do(func() {
		g.cond = CondenseCSR(g.n, g.outOff, g.outAdj)
		g.condSet.Store(true)
	})
	return g.cond
}

// condIfComputed returns the cached condensation if some caller has already
// computed it, and nil otherwise — it never triggers the computation. The
// update path uses it to decide whether an incremental condensation patch has
// a base to start from.
func (g *Graph) condIfComputed() *Condensation {
	if g.condSet.Load() {
		return g.cond
	}
	return nil
}

// adoptCondensation installs a precomputed condensation on a snapshot that no
// reader has seen yet (the update path patches the predecessor's condensation
// forward instead of re-running Tarjan). If a condensation was already
// computed or adopted, the call is a no-op.
func (g *Graph) adoptCondensation(c *Condensation) {
	g.condOnce.Do(func() {
		g.cond = c
		g.condSet.Store(true)
	})
}

// HasEdge reports whether the edge (u, v) exists. It binary-searches the
// sorted successor list of u.
func (g *Graph) HasEdge(u, v NodeID) bool {
	succ := g.Out(u)
	i := sort.Search(len(succ), func(i int) bool { return succ[i] >= v })
	return i < len(succ) && succ[i] == v
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are dropped at Build time; self-loops are kept (data graphs
// in the wild contain them and simulation handles them naturally).
type Builder struct {
	labels []LabelID
	attrs  attrWriter // the attributes given to AddNode, already in table form
	edges  [][2]NodeID
	dict   *Dict
}

// NewBuilder returns an empty Builder with a fresh label dictionary.
func NewBuilder() *Builder {
	return &Builder{dict: NewDict()}
}

// NewBuilderWithDict returns an empty Builder that interns labels into dict,
// allowing several graphs to share an alphabet.
func NewBuilderWithDict(dict *Dict) *Builder {
	return &Builder{dict: dict}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// AddNode appends a node with the given label and optional attributes and
// returns its ID.
func (b *Builder) AddNode(label string, attrs map[string]Value) NodeID {
	id := NodeID(len(b.labels))
	b.labels = append(b.labels, b.dict.Intern(label))
	b.attrs.add(int(id), attrs)
	return id
}

// AddEdge appends the directed edge (u, v).
func (b *Builder) AddEdge(u, v NodeID) error {
	n := NodeID(len(b.labels))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
	return nil
}

// Build finalizes the graph. The Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	// Sort and deduplicate edges so successor lists are sorted and unique.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	edges := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		edges = append(edges, e)
	}
	m := len(edges)

	g := &Graph{
		n:      n,
		m:      m,
		labels: b.labels,
		attrs:  b.attrs.t,
		dict:   b.dict,
		outOff: make([]int32, n+1),
		outAdj: make([]NodeID, m),
		inOff:  make([]int32, n+1),
		inAdj:  make([]NodeID, m),
	}

	for _, e := range edges {
		g.outOff[e[0]+1]++
		g.inOff[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	outNext := make([]int32, n)
	inNext := make([]int32, n)
	copy(outNext, g.outOff[:n])
	copy(inNext, g.inOff[:n])
	for _, e := range edges {
		g.outAdj[outNext[e[0]]] = e[1]
		outNext[e[0]]++
		g.inAdj[inNext[e[1]]] = e[0]
		inNext[e[1]]++
	}
	// In-adjacency within each node is filled in ascending source order
	// because edges were sorted by (src, dst); re-sorting per node keeps the
	// invariant explicit even if the fill order changes.
	for v := 0; v < n; v++ {
		in := g.inAdj[g.inOff[v]:g.inOff[v+1]]
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	}

	g.byLabel = make(map[LabelID][]NodeID)
	for v, l := range g.labels {
		g.byLabel[l] = append(g.byLabel[l], NodeID(v))
	}
	return g
}
