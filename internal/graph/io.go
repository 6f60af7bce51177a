package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// Text file format for data graphs, one directive per line:
//
//	# comment
//	node <id> <label> [key=value ...]
//	edge <src> <dst>
//
// Node IDs must be dense (0..n-1) but may appear in any order; values are
// stored as integers when they parse as such, strings otherwise (the format
// is deliberately simple and unquoted). This is the on-disk format
// cmd/graphgen writes and cmd/divtopkd -graph loads.
//
// Because the format is whitespace-delimited with '='-separated attributes,
// not every in-memory graph is encodable: labels and attribute keys must be
// non-empty and free of whitespace, keys must also be free of '=', and
// string attribute values must be free of whitespace and must not
// themselves parse as integers (Read would silently change their type).
// A label is a whole field and an attribute splits at its first '=', so
// '=' inside a label or a value reads back unchanged. Write rejects
// unencodable graphs with an error instead of emitting a file Read would
// reject or mis-parse, so a successful Write always round-trips.

// checkToken validates one emitted token (label, key or string value).
func checkToken(kind string, v NodeID, s string) error {
	if s == "" && kind != "string value" {
		return fmt.Errorf("graph: write: node %d: empty %s is not encodable", v, kind)
	}
	// Read tokenizes with strings.Fields, which splits on unicode.IsSpace —
	// so any Unicode space (NBSP, U+2000…) is unencodable, not just ASCII.
	if strings.IndexFunc(s, unicode.IsSpace) >= 0 {
		return fmt.Errorf("graph: write: node %d: %s %q contains whitespace and is not encodable", v, kind, s)
	}
	if kind == "attribute key" && strings.ContainsRune(s, '=') {
		return fmt.Errorf("graph: write: node %d: %s %q contains '=' and is not encodable", v, kind, s)
	}
	return nil
}

// Write serializes g to w in the text format. It returns an error — before
// writing the offending line — when g contains a label, attribute key or
// string value the format cannot represent (see the format comment above).
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# divtopk graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		if err := checkToken("label", v, g.Label(v)); err != nil {
			return err
		}
		fmt.Fprintf(bw, "node %d %s", v, g.Label(v))
		for _, k := range g.AttrKeys(v) {
			val, _ := g.Attr(v, k)
			if err := checkToken("attribute key", v, k); err != nil {
				return err
			}
			if val.Kind == KindString {
				if err := checkToken("string value", v, val.Str); err != nil {
					return fmt.Errorf("%w (key %q)", err, k)
				}
				if _, err := strconv.ParseInt(val.Str, 10, 64); err == nil {
					return fmt.Errorf("graph: write: node %d: string value %q of key %q would re-parse as an integer and is not encodable", v, val.Str, k)
				}
			}
			fmt.Fprintf(bw, " %s=%s", k, val)
		}
		fmt.Fprintln(bw)
	}
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		for _, u := range g.Out(v) {
			fmt.Fprintf(bw, "edge %d %d\n", v, u)
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text format. It validates density of node IDs
// and edge endpoints and reports the first error with its line number.
func Read(r io.Reader) (*Graph, error) {
	type nodeDecl struct {
		label string
		attrs map[string]Value
	}
	type edgeDecl struct {
		src, dst NodeID
		line     int
	}
	nodes := make(map[NodeID]nodeDecl)
	var edges []edgeDecl
	maxID := NodeID(-1)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: node needs id and label", lineNo)
			}
			id, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if _, dup := nodes[id]; dup {
				return nil, fmt.Errorf("graph: line %d: duplicate node %d", lineNo, id)
			}
			decl := nodeDecl{label: fields[2]}
			if len(fields) > 3 {
				decl.attrs = make(map[string]Value, len(fields)-3)
				for _, kv := range fields[3:] {
					k, v, ok := strings.Cut(kv, "=")
					if !ok || k == "" {
						return nil, fmt.Errorf("graph: line %d: bad attribute %q", lineNo, kv)
					}
					decl.attrs[k] = parseValue(v)
				}
			}
			nodes[id] = decl
			if id > maxID {
				maxID = id
			}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: edge needs src and dst", lineNo)
			}
			src, err := parseNodeID(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			dst, err := parseNodeID(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			edges = append(edges, edgeDecl{src: src, dst: dst, line: lineNo})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}

	n := int(maxID) + 1
	if len(nodes) != n {
		return nil, fmt.Errorf("graph: node IDs not dense: %d declarations, max id %d", len(nodes), maxID)
	}
	// Validate edge endpoints against the declared node range here rather
	// than deferring to Builder.AddEdge, so the error carries the line
	// number like every other parse error. (Edges may precede their node
	// declarations, hence the post-pass.)
	for _, e := range edges {
		for _, end := range [2]NodeID{e.src, e.dst} {
			if int(end) >= n {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d): endpoint %d beyond declared nodes (have %d)",
					e.line, e.src, e.dst, end, n)
			}
		}
	}
	b := NewBuilder()
	for id := NodeID(0); id < NodeID(n); id++ {
		decl := nodes[id]
		b.AddNode(decl.label, decl.attrs)
	}
	for _, e := range edges {
		if err := b.AddEdge(e.src, e.dst); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", e.line, err)
		}
	}
	return b.Build(), nil
}

func parseNodeID(s string) (NodeID, error) {
	id, err := strconv.ParseInt(s, 10, 32)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return NodeID(id), nil
}

// parseValue interprets v as an integer when possible, else as a string.
func parseValue(v string) Value {
	if i, err := strconv.ParseInt(v, 10, 64); err == nil {
		return IntValue(i)
	}
	return StrValue(v)
}
