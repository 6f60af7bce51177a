// Package lockhold flags heavy computation and channel sends performed
// while a sync.Mutex / sync.RWMutex write lock acquired in the same
// function is held.
//
// Invariant (PR 2/PR 5, BoundsCache and Registry): locks in the serving
// path guard map lookups and pointer swaps, never traversals. PR 5 fixed
// exactly this bug — BoundsCache.Warm computed descendant-label counts
// under the write lock, serializing every concurrent query behind a cold
// fill; the fixed countsFor claims a flight under the lock, releases it,
// and computes outside; the warm registry's warmState does the same around
// building a pattern's maintained state. The analyzer enforces that shape:
// between Lock() and Unlock() (a deferred Unlock holds to the end of the
// function) no call in the heavy class below and no channel send may appear.
//
// The analysis is a path-sensitive must-analysis over the cfg package's
// control-flow graph: the abstract state is the set of mutex expressions
// ("s.mu") held, the join at a merge point is set intersection (a lock is
// held after a branch only if it is held on every path reaching it), and
// break/continue/goto/fallthrough edges — which the earlier structured
// walker approximated away — carry state like any other edge. A lock
// acquired on every arm of a switch is therefore held after it, and a lock
// released on every arm is not.
//
// Lock manipulation hidden behind helper methods is tracked through the
// LockEffects object fact: a method whose body leaves a receiver-rooted
// lock held on every return path (net of deferred unlocks) Sets it; one
// that unlocks a lock it never acquired Clears it. Facts flow across
// package boundaries through the facts package, and within a package the
// export pass iterates to a fixpoint so helper chains resolve regardless
// of declaration order.
//
// Closures are separate scopes: a lock acquired in the enclosing function
// is not attributed to calls inside a func literal (which typically runs
// elsewhere — goroutines, deferred cleanup).
package lockhold

import (
	"go/ast"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"

	"divtopk/tools/vet/analysis"
	"divtopk/tools/vet/analysis/cfg"
	"divtopk/tools/vet/internal/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "flag heavy compute or channel sends while holding a mutex write " +
		"lock acquired in the same function (directly or via a helper)",
	Run: run,
}

// LockEffects is the object fact exported for a method that changes its
// receiver's lock state on behalf of the caller. Paths are receiver-relative
// (".mu" for a method on s that locks s.mu); the caller rebases them onto
// the call's receiver expression, so s.lockIt() sets "s.mu".
type LockEffects struct {
	// Sets lists the locks held on every return path, net of deferred
	// unlocks: what the method acquires for its caller.
	Sets []string
	// Clears lists the locks the method releases without having acquired
	// them itself: what it releases for its caller.
	Clears []string
}

// AFact marks LockEffects as an analyzer fact.
func (*LockEffects) AFact() {}

// heavyRE / heavyNames define the "heavy computation" class: the engine's
// per-query and per-graph traversal entry points. Extend the list when a
// new expensive subsystem entry point appears.
var heavyRE = regexp.MustCompile(`^(Compute|Warm)`)

var heavyNames = map[string]bool{
	"Condensation":            true,
	"CondenseCSR":             true,
	"DescendantLabelCounts":   true,
	"BuildProduct":            true,
	"BuildCandidatesParallel": true,
	"BuildCandidatesSeeded":   true,
	"NewIncStateSeeded":       true,
	"IncCompute":              true,
	"ApplyDelta":              true,
	"ApplyDeltaWithSummary":   true,
	"ApplyDeltaVersionStep":   true,
	"Advance":                 true, // the bound index across a delta
	"evaluate":                true, // the one query evaluation route
	"NewMatcher":              true, // warms the whole bound index
}

func isHeavy(name string) bool { return heavyNames[name] || heavyRE.MatchString(name) }

// lockSet maps a mutex expression's source text ("c.mu", "mu") to held.
type lockSet = map[string]bool

func intersect(a, b lockSet) lockSet {
	out := lockSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// heldName picks the deterministic representative lock for a diagnostic.
func heldName(locked lockSet) string {
	keys := make([]string, 0, len(locked))
	for k := range locked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
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
	// Phase 1: export LockEffects facts for methods, iterating to a fixpoint
	// so a helper that locks through another helper converges no matter the
	// declaration order.
	for round := 0; round <= len(decls); round++ {
		changed := false
		for _, fd := range decls {
			if c.exportEffects(fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Phase 2: report. Func literals are separate lock scopes, each analyzed
	// over its own graph with an empty entry state.
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

// hooks observe the interesting events of one replay of a block's nodes;
// any callback may be nil.
type hooks struct {
	heavy func(call *ast.CallExpr, name, held string)
	send  func(s *ast.SendStmt, held string)
	// clear fires on an Unlock of a lock not currently held — from the
	// callee's view, the unlock of a caller-held lock.
	clear func(key string)
}

// mutexOp matches call as <mutex>.Lock() / <mutex>.Unlock() on sync.Mutex
// or sync.RWMutex (write side only; RLock/RUnlock never match).
func (c *checker) mutexOp(call *ast.CallExpr) (key string, lock, ok bool) {
	if len(call.Args) != 0 {
		return "", false, false
	}
	for _, method := range [2]string{"Lock", "Unlock"} {
		if recv, hit := typeutil.MethodCall(c.pass.TypesInfo, call, "sync", "Mutex", method); hit {
			return types.ExprString(recv), method == "Lock", true
		}
		if recv, hit := typeutil.MethodCall(c.pass.TypesInfo, call, "sync", "RWMutex", method); hit {
			return types.ExprString(recv), method == "Lock", true
		}
	}
	return "", false, false
}

// callEffects resolves call to a method carrying a LockEffects fact,
// returning the fact and the caller-side receiver prefix ("s" for
// s.lockIt(), so the fact's ".mu" rebases to "s.mu").
func (c *checker) callEffects(call *ast.CallExpr) (*LockEffects, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := c.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return nil, "", false
	}
	var eff LockEffects
	if !c.pass.ImportObjectFact(fn, &eff) {
		return nil, "", false
	}
	return &eff, types.ExprString(sel.X), true
}

// step applies one block node to locked in place, firing h's callbacks.
// Func literals and go statements are other execution contexts; defers are
// handled by the graph (collected, applied at exit where an analysis wants
// them).
func (c *checker) step(n ast.Node, locked lockSet, h hooks) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if h.send != nil && len(locked) > 0 {
				h.send(v, heldName(locked))
			}
		case *ast.CallExpr:
			if key, lock, ok := c.mutexOp(v); ok {
				if lock {
					locked[key] = true
				} else {
					if !locked[key] && h.clear != nil {
						h.clear(key)
					}
					delete(locked, key)
				}
				return false
			}
			if eff, prefix, ok := c.callEffects(v); ok {
				for _, suf := range eff.Clears {
					k := prefix + suf
					if !locked[k] && h.clear != nil {
						h.clear(k)
					}
					delete(locked, k)
				}
				for _, suf := range eff.Sets {
					locked[prefix+suf] = true
				}
			}
			if name := typeutil.CalleeName(v); isHeavy(name) && len(locked) > 0 && h.heavy != nil {
				h.heavy(v, name, heldName(locked))
			}
		}
		return true
	})
}

// flow is the must-analysis: intersection join, equality on the lock set.
func (c *checker) flow() cfg.Flow {
	return cfg.Flow{
		Entry: lockSet{},
		Transfer: func(b *cfg.Block, in cfg.State) cfg.State {
			locked := maps.Clone(in.(lockSet))
			if locked == nil {
				locked = lockSet{}
			}
			for _, n := range b.Nodes {
				c.step(n, locked, hooks{})
			}
			return locked
		},
		Join:  func(a, b cfg.State) cfg.State { return intersect(a.(lockSet), b.(lockSet)) },
		Equal: func(a, b cfg.State) bool { return maps.Equal(a.(lockSet), b.(lockSet)) },
	}
}

// sweep replays every reachable block over its fixpoint in-state, firing
// h's callbacks exactly once per program point (each block is replayed
// once, in index order, with its stabilized state).
func (c *checker) sweep(g *cfg.Graph, in map[*cfg.Block]cfg.State, h hooks) {
	for _, b := range g.Blocks {
		st, ok := in[b]
		if !ok {
			continue
		}
		locked := maps.Clone(st.(lockSet))
		for _, n := range b.Nodes {
			c.step(n, locked, h)
		}
	}
}

// check reports heavy calls and sends made while a lock is must-held in
// body; fd names the enclosing declaration for diagnostics (also when body
// belongs to a literal nested inside it).
func (c *checker) check(fd *ast.FuncDecl, body *ast.BlockStmt) {
	g := cfg.New(body)
	in := g.Fixpoint(c.flow())
	c.sweep(g, in, hooks{
		heavy: func(call *ast.CallExpr, name, held string) {
			c.pass.Reportf(call.Pos(),
				"call to %s in %s while %s is locked: heavy computation must run outside "+
					"the lock (claim state under the lock, release, compute, re-lock to publish)",
				name, typeutil.FuncFor(fd), held)
		},
		send: func(s *ast.SendStmt, held string) {
			c.pass.Reportf(s.Arrow,
				"channel send in %s while %s is locked: a blocked receiver deadlocks every "+
					"other user of the lock — send after unlocking",
				typeutil.FuncFor(fd), held)
		},
	})
}

// exportEffects computes fd's receiver-rooted lock effects and exports the
// LockEffects fact when it changed, reporting whether it did.
func (c *checker) exportEffects(fd *ast.FuncDecl) bool {
	recv := receiverName(fd)
	if recv == "" {
		return false
	}
	obj, ok := c.pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
	if !ok {
		return false
	}
	g := cfg.New(fd.Body)
	in := g.Fixpoint(c.flow())
	exit := lockSet{}
	if st, ok := in[g.Exit]; ok {
		exit = maps.Clone(st.(lockSet))
	}
	// Deferred unlocks run at exit: they cancel a lock the method acquired
	// itself, or clear one the caller holds.
	clears := map[string]bool{}
	for _, d := range g.Defers {
		if key, lock, ok := c.mutexOp(d.Call); ok && !lock {
			if exit[key] {
				delete(exit, key)
			} else {
				clears[key] = true
			}
		}
	}
	c.sweep(g, in, hooks{clear: func(key string) { clears[key] = true }})

	prefix := recv + "."
	var eff LockEffects
	for key := range exit {
		if strings.HasPrefix(key, prefix) {
			eff.Sets = append(eff.Sets, strings.TrimPrefix(key, recv))
		}
	}
	for key := range clears {
		if strings.HasPrefix(key, prefix) {
			eff.Clears = append(eff.Clears, strings.TrimPrefix(key, recv))
		}
	}
	sort.Strings(eff.Sets)
	sort.Strings(eff.Clears)
	if len(eff.Sets) == 0 && len(eff.Clears) == 0 {
		return false
	}
	var old LockEffects
	if c.pass.ImportObjectFact(obj, &old) &&
		slices.Equal(old.Sets, eff.Sets) && slices.Equal(old.Clears, eff.Clears) {
		return false
	}
	c.pass.ExportObjectFact(obj, &eff)
	return true
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
