package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"divtopk/internal/graph"
)

// Op is a comparison operator of an attribute predicate.
type Op uint8

// The supported predicate operators. Ordering operators apply to integer
// attributes; Eq/Ne apply to both kinds; Contains applies to strings.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpContains: "~",
}

// String returns the operator's surface syntax.
func (o Op) String() string { return opNames[o] }

// Predicate is one search condition on a node attribute, e.g. R>2 or
// C="music" in the paper's YouTube patterns (Fig. 4).
type Predicate struct {
	Attr string
	Op   Op
	Val  graph.Value
}

// Eval reports whether the predicate holds for data node v. A missing
// attribute or a kind mismatch makes the predicate false (never an error):
// data graphs are heterogeneous and nodes simply fail the search condition.
func (p Predicate) Eval(g *graph.Graph, v graph.NodeID) bool {
	val, ok := g.Attr(v, p.Attr)
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return val == p.Val
	case OpNe:
		return val.Kind == p.Val.Kind && val != p.Val
	case OpContains:
		return val.Kind == graph.KindString && p.Val.Kind == graph.KindString &&
			strings.Contains(val.Str, p.Val.Str)
	}
	if val.Kind != graph.KindInt || p.Val.Kind != graph.KindInt {
		return false
	}
	switch p.Op {
	case OpLt:
		return val.Int < p.Val.Int
	case OpLe:
		return val.Int <= p.Val.Int
	case OpGt:
		return val.Int > p.Val.Int
	case OpGe:
		return val.Int >= p.Val.Int
	}
	return false
}

// String renders the predicate as attr<op>value. A string value that is
// empty or reads as an integer is quoted, so that ParsePredicate reads back
// the same kind and the pattern text — also the cache key — tells C="12"
// from C=12.
func (p Predicate) String() string {
	if p.Val.Kind == graph.KindString {
		if _, err := strconv.ParseInt(p.Val.Str, 10, 64); err == nil || p.Val.Str == "" {
			return p.Attr + p.Op.String() + `"` + p.Val.Str + `"`
		}
	}
	return fmt.Sprintf("%s%s%s", p.Attr, p.Op, p.Val)
}

func (p Predicate) validate() error {
	if p.Attr == "" {
		return fmt.Errorf("predicate with empty attribute name")
	}
	if _, ok := opNames[p.Op]; !ok {
		return fmt.Errorf("predicate %s: unknown operator", p.Attr)
	}
	if p.Op == OpContains && p.Val.Kind != graph.KindString {
		return fmt.Errorf("predicate %s: contains requires a string value", p.Attr)
	}
	return nil
}

// Convenience constructors for the common predicate shapes.

// AttrEq builds attr = value (value may be int64 or string).
func AttrEq(attr string, value any) Predicate { return Predicate{attr, OpEq, toValue(value)} }

// AttrNe builds attr != value.
func AttrNe(attr string, value any) Predicate { return Predicate{attr, OpNe, toValue(value)} }

// AttrLt builds attr < value for integer attributes.
func AttrLt(attr string, value int64) Predicate { return Predicate{attr, OpLt, graph.IntValue(value)} }

// AttrLe builds attr <= value for integer attributes.
func AttrLe(attr string, value int64) Predicate { return Predicate{attr, OpLe, graph.IntValue(value)} }

// AttrGt builds attr > value for integer attributes.
func AttrGt(attr string, value int64) Predicate { return Predicate{attr, OpGt, graph.IntValue(value)} }

// AttrGe builds attr >= value for integer attributes.
func AttrGe(attr string, value int64) Predicate { return Predicate{attr, OpGe, graph.IntValue(value)} }

// AttrContains builds a substring predicate on a string attribute.
func AttrContains(attr, sub string) Predicate {
	return Predicate{attr, OpContains, graph.StrValue(sub)}
}

func toValue(v any) graph.Value {
	switch x := v.(type) {
	case int:
		return graph.IntValue(int64(x))
	case int64:
		return graph.IntValue(x)
	case string:
		return graph.StrValue(x)
	case graph.Value:
		return x
	default:
		panic(fmt.Sprintf("pattern: unsupported predicate value type %T", v))
	}
}
