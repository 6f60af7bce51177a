// Package cfg lowers Go function bodies into a control-flow graph of basic
// blocks, and provides a worklist fixpoint driver over it, for the
// divtopk-vet dataflow analyzers.
//
// The lowering is the ast-to-CFG step the stock go/analysis ecosystem's
// ctrlflow pass performs: statements and the expressions evaluated with them
// are appended to the current block in execution order, and every construct
// that forks or rejoins control — if/else, for/range loops (including break,
// continue, and the zero-iteration exit), switch and type switch with
// fallthrough, select, goto and labels — becomes explicit edges between
// blocks. return statements and calls to panic edge to a single synthetic
// Exit block, so "state at function exit" is one join. defer statements are
// not placed in any block: their calls run at every exit in LIFO order, so
// they are collected on the Graph for analyses to apply against the Exit
// state (lockhold treats a deferred Unlock as holding to the end).
//
// Function literals are deliberately not descended into: a FuncLit body is a
// separate execution context (a goroutine, a deferred cleanup, a callback)
// and gets its own Graph; see New's contract.
package cfg

import "go/ast"

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block in creation order; Blocks[0] is Entry.
	// Unreachable blocks (code after return, empty join targets) may appear;
	// Fixpoint never visits them.
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block: every return, every call to
	// panic, and the fall-through end of the body edge into it. It holds no
	// nodes.
	Exit *Block
	// Defers collects the function's defer statements in source order. Their
	// effects apply at Exit (in reverse order), not at the defer site.
	Defers []*ast.DeferStmt
}

// Block is one basic block: a maximal straight-line sequence of nodes with
// edges only at the end.
type Block struct {
	Index int
	// Nodes holds the statements — and bare condition/tag expressions of the
	// constructs that end the block — in execution order. A node is an
	// ast.Stmt or an ast.Expr (for if/for conditions, switch tags, range
	// operands), never a FuncLit body.
	Nodes []ast.Node
	Succs []*Block
	preds []*Block
}

// New builds the control-flow graph of body. Nested function literals are
// not descended into; build a separate Graph per literal body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelBlocks{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.preds = append(s.preds, blk)
		}
	}
	return g
}

// labelBlocks are the resolution targets of one label: the labeled
// statement's own block (goto), and — once the labeled loop/switch is built —
// its break and continue targets.
type labelBlocks struct {
	start      *Block
	breakTo    *Block
	continueTo *Block
}

type builder struct {
	g   *Graph
	cur *Block
	// breakTo/continueTo are the innermost targets of an unlabeled
	// break/continue; loops and switches push and pop them.
	breakTo    *Block
	continueTo *Block
	labels     map[string]*labelBlocks
	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so the construct can register its break/continue targets.
	pendingLabel *labelBlocks
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// startBlock seals cur with an edge to next and makes next current.
func (b *builder) startBlock(next *Block) {
	b.edge(b.cur, next)
	b.cur = next
}

func (b *builder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) label(name string) *labelBlocks {
	l, ok := b.labels[name]
	if !ok {
		l = &labelBlocks{}
		b.labels[name] = l
	}
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanic reports whether s is a call to the panic builtin (matched
// syntactically: shadowing panic is not a shape this repository contains).
func isPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.LabeledStmt:
		l := b.label(st.Label.Name)
		if l.start == nil { // a forward goto may have created it already
			l.start = b.newBlock()
		}
		b.startBlock(l.start)
		b.pendingLabel = l
		b.stmt(st.Stmt)
		b.pendingLabel = nil

	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.branch(st)

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, st)

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		then, after := b.newBlock(), b.newBlock()
		b.edge(b.cur, then)
		if st.Else != nil {
			els := b.newBlock()
			b.edge(b.cur, els)
			b.cur = then
			b.stmt(st.Body)
			b.edge(b.cur, after)
			b.cur = els
			b.stmt(st.Else)
			b.startBlock(after)
		} else {
			b.edge(b.cur, after)
			b.cur = then
			b.stmt(st.Body)
			b.startBlock(after)
		}

	case *ast.ForStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		head, body, post, after := b.newBlock(), b.newBlock(), b.newBlock(), b.newBlock()
		b.startBlock(head)
		if st.Cond != nil {
			b.add(st.Cond)
			b.edge(head, after) // zero-iteration / loop-done exit
		}
		b.edge(head, body)
		b.loopBody(st.Body, body, after, post)
		b.edge(b.cur, post)
		b.cur = post
		if st.Post != nil {
			b.add(st.Post)
		}
		b.edge(post, head) // back edge
		b.cur = after

	case *ast.RangeStmt:
		b.add(st.X)
		head, body, after := b.newBlock(), b.newBlock(), b.newBlock()
		b.startBlock(head)
		// The per-iteration key/value bindings; the body is NOT part of
		// these nodes (it gets its own blocks below).
		b.add(st.Key)
		b.add(st.Value)
		b.edge(head, after)
		b.edge(head, body)
		b.loopBody(st.Body, body, after, head)
		b.edge(b.cur, head) // back edge
		b.cur = after

	case *ast.SwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.switchBody(st.Body, nil)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Assign)
		b.switchBody(st.Body, nil)

	case *ast.SelectStmt:
		b.switchBody(st.Body, func(c ast.Stmt) ast.Stmt {
			if cc, ok := c.(*ast.CommClause); ok {
				return cc.Comm
			}
			return nil
		})

	default:
		if isPanic(s) {
			b.add(s)
			b.edge(b.cur, b.g.Exit)
			b.cur = b.newBlock()
			return
		}
		b.add(s)
	}
}

// loopBody builds a loop's body block with break/continue targets pushed,
// registering them on a pending label as well.
func (b *builder) loopBody(body *ast.BlockStmt, blk, breakTo, continueTo *Block) {
	if l := b.pendingLabel; l != nil {
		l.breakTo, l.continueTo = breakTo, continueTo
		b.pendingLabel = nil
	}
	savedB, savedC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = breakTo, continueTo
	b.cur = blk
	b.stmt(body)
	b.breakTo, b.continueTo = savedB, savedC
}

// switchBody lowers a switch/type-switch/select body: every clause begins a
// block reachable from the dispatch point; a missing default adds a direct
// edge to after. comm extracts a clause's communication statement (select).
func (b *builder) switchBody(body *ast.BlockStmt, comm func(ast.Stmt) ast.Stmt) {
	after := b.newBlock()
	if l := b.pendingLabel; l != nil {
		l.breakTo = after
		b.pendingLabel = nil
	}
	savedB := b.breakTo
	b.breakTo = after
	dispatch := b.cur

	hasDefault := false
	var clauseBlocks []*Block
	var clauses []ast.Stmt
	for _, c := range body.List {
		clauses = append(clauses, c)
		clauseBlocks = append(clauseBlocks, b.newBlock())
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			// Case expressions are evaluated at the dispatch point.
			for _, e := range cc.List {
				if dispatch != nil {
					dispatch.Nodes = append(dispatch.Nodes, e)
				}
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
		}
	}
	for i, c := range clauses {
		blk := clauseBlocks[i]
		b.edge(dispatch, blk)
		b.cur = blk
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			if comm != nil {
				if cs := comm(c); cs != nil {
					b.stmt(cs)
				}
			}
			list = cc.Body
		}
		// fallthrough (always the last statement) edges into the next
		// clause's block instead of after.
		ft := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				ft = true
				list = list[:n-1]
			}
		}
		b.stmtList(list)
		if ft && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
			b.cur = nil
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(dispatch, after)
	}
	b.breakTo = savedB
	b.cur = after
}

func (b *builder) branch(st *ast.BranchStmt) {
	var target *Block
	switch st.Tok.String() {
	case "break":
		target = b.breakTo
		if st.Label != nil {
			target = b.label(st.Label.Name).breakTo
		}
	case "continue":
		target = b.continueTo
		if st.Label != nil {
			target = b.label(st.Label.Name).continueTo
		}
	case "goto":
		if st.Label != nil {
			l := b.label(st.Label.Name)
			if l.start == nil {
				// Forward goto: create the target now; the LabeledStmt will
				// adopt it.
				l.start = b.newBlock()
			}
			target = l.start
		}
	case "fallthrough":
		// Handled structurally in switchBody; a stray one (syntactically
		// impossible elsewhere) falls through.
		return
	}
	if target != nil {
		b.edge(b.cur, target)
	}
	b.cur = b.newBlock() // unreachable continuation
}
