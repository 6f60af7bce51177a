// Package curload flags functions that load a session's atomic snapshot
// pointer more than once on one execution path, or that mix a direct load
// with a Version() call on the same session.
//
// Invariant (PR 4/PR 5, Matcher.cur): the current graph snapshot lives in an
// atomic.Pointer named cur, swapped wholesale by Update. Any function that
// calls m.cur.Load() twice — or calls m.cur.Load() and m.Version() — can
// observe two different snapshots across a concurrent Update: a torn
// snapshot/version pair, which is exactly how a result computed on one graph
// gets cached or reported under another graph's version. Bind the snapshot
// once (g := m.cur.Load()) and derive everything, including the version,
// from g.
//
// The analysis runs over the cfg package's control-flow graph with a
// per-session load-count lattice (counts clamp at 2, so loops converge) and
// a max join: a reload is flagged exactly when some execution path performs
// it. Branch-exclusive loads — one load in the if arm, one in the else —
// are therefore clean (no single path loads twice, where the earlier
// syntactic count false-positived), while a single textual load inside a
// loop is caught through the back edge (every iteration after the first
// re-loads — the torn pair the syntactic count could not see).
//
// Zero-argument accessor methods that load their receiver's snapshot
// internally (func (m *Matcher) Version() { return m.cur.Load()... })
// carry the LoadsCur object fact; calling one after binding the snapshot is
// a helper-indirected reload and is flagged at the call site. Calls with
// arguments never consume the fact: a per-item helper (m.topK(pattern) in a
// batch loop) legitimately re-loads per item, and counting it would flag
// every batch entry point.
package curload

import (
	"go/ast"
	"go/types"
	"maps"

	"divtopk/tools/vet/analysis"
	"divtopk/tools/vet/analysis/cfg"
	"divtopk/tools/vet/internal/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "curload",
	Doc: "flag repeated cur.Load() or mixed cur.Load()/Version() on one " +
		"path of a function (torn snapshot/version pairs)",
	Run: run,
}

// LoadsCur is the object fact for zero-parameter accessor methods whose
// body loads the receiver's cur snapshot pointer: calling one is a load.
type LoadsCur struct {
	// Loads is the number of snapshot loads one call performs on some path
	// (clamped at 2).
	Loads int
}

// AFact marks LoadsCur as an analyzer fact.
func (*LoadsCur) AFact() {}

// maxCount clamps the lattice: 0, 1, "2 or more". Clamping bounds the
// chain height so loop back edges converge.
const maxCount = 2

// baseKey identifies the session value a call chain is rooted at: by object
// when the root is a plain identifier chain, by source text otherwise.
type baseKey struct {
	obj types.Object
	str string
}

// counts is the per-session path state.
type counts struct {
	loads    int // snapshot loads executed on this path
	versions int // Version() calls executed on this path
}

// lState maps each session base to its path counts.
type lState = map[baseKey]counts

func joinState(a, b lState) lState {
	out := maps.Clone(a)
	for k, bc := range b {
		ac := out[k]
		out[k] = counts{loads: max(ac.loads, bc.loads), versions: max(ac.versions, bc.versions)}
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Phase 1: LoadsCur facts for zero-parameter accessors, iterated so
	// accessor chains converge regardless of declaration order.
	for round := 0; round <= len(decls); round++ {
		changed := false
		for _, fd := range decls {
			if c.exportLoads(fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Phase 2: report. Func literals are separate sessions-of-execution
	// (goroutines, callbacks) and get their own graphs and empty state.
	for _, fd := range decls {
		c.check(fd, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.check(fd, lit.Body)
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

// hooks observe one replay of a block's nodes; any callback may be nil.
type hooks struct {
	// reload fires on a direct load while the path already loaded.
	reload func(call *ast.CallExpr)
	// mixed fires on a Version()/load pairing on one path, at the later call.
	mixed func(call *ast.CallExpr)
	// helper fires on an accessor-fact call that re-loads a bound snapshot.
	helper func(call *ast.CallExpr, name string)
}

func (c *checker) keyOf(e ast.Expr) baseKey {
	if obj := typeutil.ObjOf(c.pass.TypesInfo, e); obj != nil {
		return baseKey{obj: obj}
	}
	return baseKey{str: types.ExprString(e)}
}

// loadCall matches call as <base>.cur.Load() on an atomic.Pointer field,
// returning the session base key.
func (c *checker) loadCall(call *ast.CallExpr) (baseKey, bool) {
	if len(call.Args) != 0 {
		return baseKey{}, false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != "Load" {
		return baseKey{}, false
	}
	field, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "cur" {
		return baseKey{}, false
	}
	tv, ok := c.pass.TypesInfo.Types[field]
	if !ok || !typeutil.IsNamed(tv.Type, "atomic", "Pointer") {
		return baseKey{}, false
	}
	return c.keyOf(field.X), true
}

// accessorLoads matches call as a zero-argument method call carrying the
// LoadsCur fact, returning the receiver base and the load count.
func (c *checker) accessorLoads(call *ast.CallExpr) (baseKey, string, int, bool) {
	if len(call.Args) != 0 {
		return baseKey{}, "", 0, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return baseKey{}, "", 0, false
	}
	fn, ok := c.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return baseKey{}, "", 0, false
	}
	var f LoadsCur
	if !c.pass.ImportObjectFact(fn, &f) || f.Loads == 0 {
		return baseKey{}, "", 0, false
	}
	return c.keyOf(sel.X), sel.Sel.Name, f.Loads, true
}

// step applies one block node to st in place, firing h's callbacks.
func (c *checker) step(n ast.Node, st lState, h hooks) {
	// A bare identifier node is a range-header binding (cfg emits Key and
	// Value as their own nodes): the variable is rebound every iteration,
	// so a `for _, m := range sessions` loop loads each session once — the
	// back edge must not carry m's count into the next iteration.
	if id, ok := n.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			delete(st, baseKey{obj: obj})
			return
		}
	}
	// An assignment rebinds its simple-identifier destinations: counts
	// belong to the old value (a session looked up inside a loop body is a
	// different session each iteration). RHS effects are counted first —
	// they run against the old bindings.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, r := range as.Rhs {
			c.inspect(r, st, h)
		}
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
					delete(st, baseKey{obj: obj})
				}
			}
		}
		return
	}
	c.inspect(n, st, h)
}

// inspect applies every call effect inside n to st.
func (c *checker) inspect(n ast.Node, st lState, h hooks) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if base, ok := c.loadCall(v); ok {
				cs := st[base]
				if cs.loads >= 1 && h.reload != nil {
					h.reload(v)
				} else if cs.versions >= 1 && h.mixed != nil {
					h.mixed(v)
				}
				cs.loads = min(cs.loads+1, maxCount)
				st[base] = cs
				return true
			}
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Version" && len(v.Args) == 0 {
				base := c.keyOf(sel.X)
				cs := st[base]
				if cs.loads >= 1 && h.mixed != nil {
					h.mixed(v)
				}
				cs.versions = min(cs.versions+1, maxCount)
				st[base] = cs
				return true
			}
			if base, name, n, ok := c.accessorLoads(v); ok {
				cs := st[base]
				if cs.loads >= 1 && h.helper != nil {
					h.helper(v, name)
				}
				cs.loads = min(cs.loads+n, maxCount)
				st[base] = cs
			}
		}
		return true
	})
}

func (c *checker) flow() cfg.Flow {
	return cfg.Flow{
		Entry: lState{},
		Transfer: func(b *cfg.Block, in cfg.State) cfg.State {
			st := maps.Clone(in.(lState))
			if st == nil {
				st = lState{}
			}
			for _, n := range b.Nodes {
				c.step(n, st, hooks{})
			}
			return st
		},
		Join:  func(a, b cfg.State) cfg.State { return joinState(a.(lState), b.(lState)) },
		Equal: func(a, b cfg.State) bool { return maps.Equal(a.(lState), b.(lState)) },
	}
}

// sweep replays every reachable block over its fixpoint in-state.
func (c *checker) sweep(g *cfg.Graph, in map[*cfg.Block]cfg.State, h hooks) {
	for _, b := range g.Blocks {
		stIn, ok := in[b]
		if !ok {
			continue
		}
		st := maps.Clone(stIn.(lState))
		for _, n := range b.Nodes {
			c.step(n, st, h)
		}
	}
}

// check reports torn-pair shapes in body; fd names the enclosing
// declaration.
func (c *checker) check(fd *ast.FuncDecl, body *ast.BlockStmt) {
	g := cfg.New(body)
	in := g.Fixpoint(c.flow())
	fn := typeutil.FuncFor(fd)
	c.sweep(g, in, hooks{
		reload: func(call *ast.CallExpr) {
			c.pass.Reportf(call.Pos(),
				"second cur.Load() in %s: bind the snapshot once — a reload may observe a "+
					"different snapshot across a concurrent Update (torn snapshot/version pair)",
				fn)
		},
		mixed: func(call *ast.CallExpr) {
			c.pass.Reportf(call.Pos(),
				"%s mixes cur.Load() with Version() on the same session: Version() reloads the "+
					"pointer and can disagree with the bound snapshot; use the loaded snapshot's Version",
				fn)
		},
		helper: func(call *ast.CallExpr, name string) {
			c.pass.Reportf(call.Pos(),
				"call to %s in %s re-loads the session snapshot already bound in this function: "+
					"derive from the bound snapshot instead (a helper-indirected reload tears the "+
					"snapshot/version pair)",
				name, fn)
		},
	})
}

// exportLoads computes fd's LoadsCur fact (zero-parameter methods only),
// reporting whether it changed.
func (c *checker) exportLoads(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	if fd.Type.Params != nil && fd.Type.Params.NumFields() > 0 {
		return false
	}
	recvObj := c.pass.TypesInfo.ObjectOf(fd.Recv.List[0].Names[0])
	obj, ok := c.pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
	if !ok || recvObj == nil {
		return false
	}
	g := cfg.New(fd.Body)
	in := g.Fixpoint(c.flow())
	n := 0
	if st, ok := in[g.Exit]; ok {
		n = st.(lState)[baseKey{obj: recvObj}].loads
	}
	if n == 0 {
		return false
	}
	eff := LoadsCur{Loads: n}
	var old LoadsCur
	if c.pass.ImportObjectFact(obj, &old) && old == eff {
		return false
	}
	c.pass.ExportObjectFact(obj, &eff)
	return true
}
