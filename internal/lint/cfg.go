package lint

// This file is the control-flow layer of the flow-sensitive analyzers:
// a per-function control-flow graph built from the go/ast statement
// tree alone (no SSA, no extra dependencies). Each basic block holds
// the AST nodes that execute in it, in execution order; edges carry the
// branch condition they are taken under so dataflow clients can refine
// facts along the true/false arms of a nil check.
//
// The builder is deliberately statement-granular rather than
// expression-granular: short-circuit operators inside a condition are
// not decomposed into sub-blocks, and function literals are opaque
// nodes of the block that creates them (analyzers build separate CFGs
// for their bodies). That keeps the graph small and the transfer
// functions simple while still distinguishing everything the analyzers
// here need: which statements run under which branch, which paths reach
// a return or a panic, and what order locks, defers and cache writes
// happen in.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in CFG.Blocks (dataflow uses it to
	// key per-block state).
	Index int
	// Nodes are the statements and conditions of the block in execution
	// order. A branch condition (if/for) is the last node of its block.
	Nodes []ast.Node
	// Succs are the outgoing edges in source order; a conditional
	// block's true edge precedes its false edge.
	Succs []Edge
	// Live reports whether the block is reachable from the entry.
	Live bool
}

// Edge is one control transfer between blocks.
type Edge struct {
	To *Block
	// Cond is the branch condition the edge depends on (nil for an
	// unconditional transfer); Negated marks the edge taken when Cond
	// evaluates to false.
	Cond    ast.Expr
	Negated bool
	// Exit marks an edge into the synthetic exit block, and Kind says
	// why control leaves the function along it.
	Exit bool
	Kind ExitKind
}

// ExitKind classifies an edge into the exit block.
type ExitKind uint8

const (
	// ExitFall is the implicit return at the end of the body.
	ExitFall ExitKind = iota
	// ExitReturn is an explicit return statement.
	ExitReturn
	// ExitPanic is a call to panic (deferred functions still run).
	ExitPanic
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block, entry first; unreachable blocks are
	// kept (with Live=false) so node lookups never fail.
	Blocks []*Block
	// Entry is the block the function starts in.
	Entry *Block
	// Exit is the synthetic block every return, panic and fall-through
	// converges to. It holds no nodes.
	Exit *Block
}

// buildCFG constructs the CFG of one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{}
	b.graph = &CFG{}
	b.graph.Entry = b.newBlock()
	b.graph.Exit = b.newBlock()
	b.cur = b.graph.Entry
	b.stmtList(body.List)
	// Fall off the end of the body: an implicit return.
	b.edgeTo(b.graph.Exit, Edge{Exit: true, Kind: ExitFall})
	b.patchGotos()
	b.markLive()
	return b.graph
}

// loopFrame tracks the jump targets of one enclosing loop or switch for
// break/continue resolution.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (continue skips them)
}

type cfgBuilder struct {
	graph  *CFG
	cur    *Block // nil after a terminator until a new block starts
	frames []loopFrame
	// labels maps label names to their statement's entry block; gotos
	// seen before their label are patched at the end.
	labels       map[string]*Block
	pendingGotos []pendingGoto
	// pendingLabel carries a just-seen label to the next loop/switch
	// frame so labeled break/continue resolve to it.
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// edgeTo adds an edge from the current block (when one is open) and
// leaves the current block terminated.
func (b *cfgBuilder) edgeTo(to *Block, e Edge) {
	if b.cur == nil {
		return
	}
	e.To = to
	b.cur.Succs = append(b.cur.Succs, e)
	b.cur = nil
}

// branch adds a conditional edge pair from the current block.
func (b *cfgBuilder) branch(cond ast.Expr, onTrue, onFalse *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs,
		Edge{To: onTrue, Cond: cond},
		Edge{To: onFalse, Cond: cond, Negated: true})
	b.cur = nil
}

// startBlock opens blk as the current block, linking from the previous
// current block when it is still open.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.edgeTo(blk, Edge{})
	}
	b.cur = blk
}

// add appends a node to the current block, opening a fresh (unreachable
// until linked) block if the previous one was terminated.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		thenB := b.newBlock()
		join := b.newBlock()
		elseB := join
		if s.Else != nil {
			elseB = b.newBlock()
		}
		b.branch(s.Cond, thenB, elseB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edgeTo(join, Edge{})
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.edgeTo(join, Edge{})
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.branch(s.Cond, body, exit)
		} else {
			b.edgeTo(body, Edge{})
		}
		b.pushFrame(loopFrame{breakTo: exit, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeTo(post, Edge{})
		b.popFrame()
		b.cur = post
		if s.Post != nil {
			b.add(s.Post)
		}
		b.edgeTo(head, Edge{})
		b.cur = exit

	case *ast.RangeStmt:
		// The range expression is evaluated once; each iteration then
		// branches between body and exit (no condition expression
		// exists to attach, so both edges are unconditional).
		b.add(s.X)
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.startBlock(head)
		if b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, Edge{To: body}, Edge{To: exit})
			b.cur = nil
		}
		b.pushFrame(loopFrame{breakTo: exit, continueTo: head})
		b.cur = body
		if s.Key != nil {
			// The per-iteration key/value assignment opens the body. It
			// is synthesized from the key and value alone: the range
			// statement itself would carry the whole body with it.
			lhs := []ast.Expr{s.Key}
			if s.Value != nil {
				lhs = append(lhs, s.Value)
			}
			b.add(&ast.AssignStmt{Lhs: lhs, TokPos: s.TokPos, Tok: s.Tok})
		}
		b.stmtList(s.Body.List)
		b.edgeTo(head, Edge{})
		b.popFrame()
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Body)
		// The assign of a type switch is re-evaluated per case; node
		// granularity does not matter to the current analyzers, so it
		// rides with the tag position via s.Assign below.

	case *ast.SelectStmt:
		join := b.newBlock()
		entry := b.cur
		if entry == nil {
			entry = b.newBlock()
			b.cur = entry
		}
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			caseB := b.newBlock()
			entry.Succs = append(entry.Succs, Edge{To: caseB})
			b.cur = caseB
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.pushFrame(loopFrame{breakTo: join})
			b.stmtList(comm.Body)
			b.popFrame()
			b.edgeTo(join, Edge{})
		}
		b.cur = nil
		b.cur = join

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.startBlock(target)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = target
		// A labeled loop/switch needs the label on its frame so that
		// `break L` / `continue L` resolve to it.
		b.labeledStmt(s.Label.Name, s.Stmt)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.frameTarget(s, false); t != nil {
				b.add(s)
				b.edgeTo(t, Edge{})
			}
		case token.CONTINUE:
			if t := b.frameTarget(s, true); t != nil {
				b.add(s)
				b.edgeTo(t, Edge{})
			}
		case token.GOTO:
			b.add(s)
			if b.cur != nil {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
				b.cur = nil
			}
		case token.FALLTHROUGH:
			// Handled structurally by switchLike; nothing to record.
			b.add(s)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.graph.Exit, Edge{Exit: true, Kind: ExitReturn})

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edgeTo(b.graph.Exit, Edge{Exit: true, Kind: ExitPanic})
		}

	default:
		// Assignments, declarations, sends, go, defer, incdec, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// labeledStmt compiles the statement under a label, arranging for
// labeled break/continue to resolve.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt) {
	b.pendingLabel = label
	b.stmt(s)
	b.pendingLabel = ""
}

// pushFrame records a loop/switch frame, attaching any pending label.
func (b *cfgBuilder) pushFrame(f loopFrame) {
	f.label = b.pendingLabel
	b.pendingLabel = ""
	b.frames = append(b.frames, f)
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// frameTarget resolves the destination of a break/continue, optionally
// labeled. Unresolvable jumps (malformed code) leave the statement as a
// plain node.
func (b *cfgBuilder) frameTarget(s *ast.BranchStmt, isContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if s.Label != nil && f.label != s.Label.Name {
			continue
		}
		if isContinue {
			if f.continueTo == nil {
				continue // switch/select frame: continue targets the loop outside
			}
			return f.continueTo
		}
		return f.breakTo
	}
	return nil
}

// switchLike compiles switch and type-switch statements: the tag block
// branches to every case (conditions are not decomposed per case), each
// case body joins the common successor, and fallthrough chains to the
// next case body.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	join := b.newBlock()
	entry := b.cur
	if entry == nil {
		entry = b.newBlock()
		b.cur = entry
	}
	// First pass: create case blocks so fallthrough can link forward.
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	caseBlocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		clauses = append(clauses, cc)
		caseBlocks = append(caseBlocks, b.newBlock())
		if cc.List == nil {
			hasDefault = true
		}
	}
	for _, cb := range caseBlocks {
		entry.Succs = append(entry.Succs, Edge{To: cb})
	}
	if !hasDefault {
		entry.Succs = append(entry.Succs, Edge{To: join})
	}
	b.cur = nil
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.pushFrame(loopFrame{breakTo: join})
		b.stmtList(cc.Body)
		b.popFrame()
		if b.cur != nil {
			if fallsThrough(cc.Body) && i+1 < len(caseBlocks) {
				b.edgeTo(caseBlocks[i+1], Edge{})
			} else {
				b.edgeTo(join, Edge{})
			}
		}
	}
	b.cur = join
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// patchGotos links goto statements to their label blocks.
func (b *cfgBuilder) patchGotos() {
	for _, g := range b.pendingGotos {
		if target, ok := b.labels[g.label]; ok {
			g.from.Succs = append(g.from.Succs, Edge{To: target})
		}
	}
}

// markLive flags every block reachable from the entry.
func (b *cfgBuilder) markLive() {
	var visit func(blk *Block)
	visit = func(blk *Block) {
		if blk.Live {
			return
		}
		blk.Live = true
		for _, e := range blk.Succs {
			visit(e.To)
		}
	}
	visit(b.graph.Entry)
}

// isPanicCall reports whether the expression is a call to the built-in
// panic. Resolution by name is deliberate: the builder has no type
// information, and a shadowed panic in this repository would itself be
// a lint finding.
func isPanicCall(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
