package graph

import "sort"

// attrTable is a snapshot's node attributes in flat form: per chunk of
// consecutive nodes, one array of pointer-free entries and one offset array.
//
// The obvious representation — a map[string]Value per node — costs the
// collector two pointer-bearing objects per attributed node on every cycle:
// on the 15k-node YouTube-like graph that is 30k objects and 2–4 ms of mark
// work per cycle, paid as assists by whichever request allocates while the
// cycle runs (an update that met a cycle took 2–5 ms instead of 1). Here a
// graph of n nodes has about 3·n/attrChunkSize objects, and the only
// pointers are the chunk's distinct string values.
//
// Like every Graph field the table is immutable once its graph is built.
// ApplyDelta derives the successor's table with appended: chunks the delta
// does not reach are shared, the last one is copied when an appended node
// lands in it.
type attrTable struct {
	// keys interns the attribute keys (the label Dict type, used as a plain
	// string interner). It is shared along an update lineage the way the
	// label dictionary is; nil until some node has an attribute.
	keys *Dict
	// chunks[c] covers the nodes [c<<attrChunkBits, (c+1)<<attrChunkBits).
	// A nil chunk, like a node past the end of chunks or of its chunk's
	// offsets, has no attributes.
	chunks []*attrChunk
}

const (
	attrChunkBits = 10
	attrChunkSize = 1 << attrChunkBits
	// attrStrScan bounds the search for an equal string already in the
	// chunk: enumerations (a category per node) collapse to a handful of
	// values, free text just appends.
	attrStrScan = 64
)

// attrChunk holds the attributes of up to attrChunkSize consecutive nodes.
type attrChunk struct {
	off  []int32 // node i of the chunk owns ents[off[i]:off[i+1]]
	ents []attrEnt
	strs []string // the chunk's string values, indexed by attrEnt.num
}

// attrEnt is one attribute of one node. A node's entries are sorted by key
// string. Only the Value field its kind uses is kept.
type attrEnt struct {
	key  LabelID // id of the key in attrTable.keys
	kind ValueKind
	num  int64 // the integer value, or the index of the string value in strs
}

// newAttrTable builds the table of a graph whose node v has attributes
// maps[v]; nil and empty maps are nodes without attributes.
func newAttrTable(maps []map[string]Value) attrTable {
	var w attrWriter
	for v, m := range maps {
		w.add(v, m)
	}
	return w.t
}

// appended returns the table with the attributes of the appended nodes
// nOld, nOld+1, ... added. t is not modified and stays valid: a successor
// snapshot shares every chunk it did not have to extend.
func (t attrTable) appended(nOld int, appends []NodeAppend) attrTable {
	w := attrWriter{t: t, shared: len(t.chunks)}
	for i := range appends {
		w.add(nOld+i, appends[i].Attrs)
	}
	return w.t
}

// attrWriter adds nodes in ascending ID order to a table under
// construction. The first shared chunks (and the chunks slice itself, while
// copied is false) belong to a published table and are copied before the
// first write; IDs ascend, so a chunk made private makes every later one so.
type attrWriter struct {
	t      attrTable
	shared int
	copied bool
	keys   []string // the node's keys, sorted; reused from node to node
}

func (w *attrWriter) add(v int, m map[string]Value) {
	if len(m) == 0 {
		return
	}
	t := &w.t
	if t.keys == nil {
		t.keys = NewDict()
	}
	if !w.copied {
		t.chunks = append([]*attrChunk(nil), t.chunks...)
		w.copied = true
	}
	ci, i := v>>attrChunkBits, v&(attrChunkSize-1)
	for len(t.chunks) <= ci {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	switch {
	case c == nil:
		c = &attrChunk{off: make([]int32, 1, i+2)}
		t.chunks[ci] = c
		w.shared = min(w.shared, ci)
	case ci < w.shared:
		// Capped, so the appends below copy instead of writing into the
		// arrays of the published chunk.
		c = &attrChunk{
			off:  c.off[:len(c.off):len(c.off)],
			ents: c.ents[:len(c.ents):len(c.ents)],
			strs: c.strs[:len(c.strs):len(c.strs)],
		}
		t.chunks[ci] = c
		w.shared = ci
	}
	for len(c.off) <= i { // the attribute-free nodes in between
		c.off = append(c.off, c.off[len(c.off)-1])
	}
	w.keys = w.keys[:0]
	for k := range m {
		w.keys = append(w.keys, k)
	}
	sort.Strings(w.keys)
	for _, k := range w.keys {
		val := m[k]
		e := attrEnt{key: t.keys.Intern(k), kind: val.Kind, num: val.Int}
		if val.Kind == KindString {
			e.num = int64(c.intern(val.Str))
		}
		c.ents = append(c.ents, e)
	}
	c.off = append(c.off, int32(len(c.ents)))
}

// intern returns the index of s in the chunk's string values, adding it if
// the bounded search does not find it.
func (c *attrChunk) intern(s string) int {
	if len(c.strs) <= attrStrScan {
		for i, have := range c.strs {
			if have == s {
				return i
			}
		}
	}
	c.strs = append(c.strs, s)
	return len(c.strs) - 1
}

// node returns the entries of node v and the chunk they index into.
func (t attrTable) node(v NodeID) ([]attrEnt, *attrChunk) {
	ci, i := int(v)>>attrChunkBits, int(v)&(attrChunkSize-1)
	if ci >= len(t.chunks) {
		return nil, nil
	}
	c := t.chunks[ci]
	if c == nil || i+1 >= len(c.off) {
		return nil, nil
	}
	return c.ents[c.off[i]:c.off[i+1]], c
}

func (c *attrChunk) value(e attrEnt) Value {
	if e.kind == KindString {
		return Value{Kind: KindString, Str: c.strs[e.num]}
	}
	return Value{Kind: e.kind, Int: e.num}
}

// get returns the value node v stores under key.
func (t attrTable) get(v NodeID, key string) (Value, bool) {
	if t.keys == nil {
		return Value{}, false
	}
	k, ok := t.keys.ID(key)
	if !ok {
		return Value{}, false
	}
	ents, c := t.node(v)
	for _, e := range ents {
		if e.key == k {
			return c.value(e), true
		}
	}
	return Value{}, false
}

// each calls fn for every attribute of node v in ascending key order.
func (t attrTable) each(v NodeID, fn func(key string, val Value)) {
	ents, c := t.node(v)
	for _, e := range ents {
		fn(t.keys.Name(e.key), c.value(e))
	}
}

// mapOf returns the attributes of node v as a fresh map, nil if it has none.
func (t attrTable) mapOf(v NodeID) map[string]Value {
	ents, c := t.node(v)
	if len(ents) == 0 {
		return nil
	}
	m := make(map[string]Value, len(ents))
	for _, e := range ents {
		m[t.keys.Name(e.key)] = c.value(e)
	}
	return m
}

// count returns the number of attributes of node v.
func (t attrTable) count(v NodeID) int {
	ents, _ := t.node(v)
	return len(ents)
}
