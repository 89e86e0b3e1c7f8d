// Package flow is the control-flow and dataflow engine under asdsim's
// interprocedural lint passes (lockorder, wirecheck). Like the
// rest of internal/lint it is stdlib-only — go/ast and go/types, no
// golang.org/x/tools — so the analyzers build anywhere the simulator
// does.
//
// The package provides four pieces:
//
//   - an intraprocedural control-flow graph builder (BuildCFG) that
//     lowers one function body into basic blocks of leaf statements
//     and condition expressions, with edges for every Go control
//     construct including labeled break/continue, goto, fallthrough,
//     select, and panic-terminated paths;
//   - a forward worklist dataflow solver (Forward) that iterates a
//     caller-supplied join/transfer to a fixed point over a CFG;
//   - a same-package call-graph with deterministic fixpoint summary
//     propagation (BuildCallGraph, Fixpoint) so passes can compute
//     transitive per-function effects (which locks a call acquires,
//     whether it may block) without whole-program SSA;
//   - a wire-surface schema model (WireSurface, ParseSchema, Format)
//     describing every struct reachable from the farm/cluster wire
//     roots, serialized as the checked-in wire.lock file.
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal straight-line sequence of leaf
// nodes. Nodes holds simple statements and the condition/tag
// expressions of the branch that ends the block, in execution order.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Kind is a human label ("entry", "if.then", "for.head", ...) for
	// debugging and tests.
	Kind string
	// Nodes are the leaf statements and branch expressions executed in
	// this block, in order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// Pos returns the position of the block's first node (or NoPos).
func (b *Block) Pos() token.Pos {
	if len(b.Nodes) > 0 {
		return b.Nodes[0].Pos()
	}
	return token.NoPos
}

// A Graph is the control-flow graph of one function body. Entry starts
// the body; Exit is the single synthetic exit joined by every return,
// panic, and fall-off-the-end path.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Reachable returns the set of blocks reachable from Entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// BuildCFG lowers body into a control-flow graph. It never panics on
// any parseable function body (FuzzCFGBuilder pins this); constructs
// it cannot model precisely (e.g. recover-driven resumption) degrade
// to conservative edges rather than failures.
func BuildCFG(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &cfgBuilder{g: g, labels: map[string]*labelScope{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit)
	// Unresolved gotos (labels that never appeared — impossible in
	// type-checked code, possible in merely-parseable fuzz inputs)
	// conservatively edge to Exit.
	for _, pg := range b.pendingGotos {
		if ls := b.labels[pg.label]; ls != nil && ls.target != nil {
			pg.from.Succs = append(pg.from.Succs, ls.target)
		} else {
			pg.from.Succs = append(pg.from.Succs, g.Exit)
		}
	}
	return g
}

// cfgBuilder holds the in-progress graph and the lexical branch-target
// context.
type cfgBuilder struct {
	g   *Graph
	cur *Block // nil after a terminator; restarted lazily

	// breakTargets / continueTargets are innermost-first stacks.
	breakTargets    []*Block
	continueTargets []*Block

	// labels maps a label name to its targets while the labeled
	// statement is in scope (and keeps goto targets for the whole
	// function).
	labels map[string]*labelScope

	// switchCases tracks the case-body blocks of the switch statements
	// currently being lowered, for fallthrough.
	switchCases [][]*Block
	switchIdx   []int

	pendingGotos []pendingGoto
}

type labelScope struct {
	target  *Block // goto target / loop head alias
	breakTo *Block
	contTo  *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// block returns the current block, lazily starting an unreachable one
// after a terminator so every statement lands in exactly one block.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// jump edges the current block to target and terminates it.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

// branch edges the current block to every target and keeps building in
// a fresh successor started by the caller.
func (b *cfgBuilder) edgeTo(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
}

func (b *cfgBuilder) start(blk *Block) {
	b.cur = blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label carries the name of the enclosing
// LabeledStmt when the statement is its direct body, so labeled
// break/continue resolve.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil:
		return

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is a goto target; give it a dedicated block so
		// backward and forward gotos both have somewhere to land.
		target := b.newBlock("label." + s.Label.Name)
		b.edgeTo(target)
		b.cur = nil
		b.start(target)
		ls := &labelScope{target: target}
		b.labels[s.Label.Name] = ls
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.edgeTo(then)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edgeTo(els)
			b.cur = nil
			b.start(els)
			b.stmt(s.Else, "")
			b.jump(done)
		} else {
			b.edgeTo(done)
			b.cur = nil
		}
		b.start(then)
		b.stmtList(s.Body.List)
		b.jump(done)
		b.start(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		post := b.newBlock("for.post")
		done := b.newBlock("for.done")
		b.jump(head)
		b.start(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edgeTo(body)
			b.edgeTo(done)
		} else {
			b.edgeTo(body)
		}
		b.cur = nil
		b.pushLoop(done, post, label, head)
		b.start(body)
		b.stmtList(s.Body.List)
		b.jump(post)
		b.popLoop(label)
		b.start(post)
		if s.Post != nil {
			b.stmt(s.Post, "")
		}
		b.jump(head)
		b.start(done)

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.jump(head)
		b.start(head)
		if s.Key != nil {
			b.add(s.Key) // the per-iteration key binding
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.edgeTo(body)
		b.edgeTo(done)
		b.cur = nil
		b.pushLoop(done, head, label, head)
		b.start(body)
		b.stmtList(s.Body.List)
		b.jump(head)
		b.popLoop(label)
		b.start(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.lowerSwitch(s.Body, label, func(c *ast.CaseClause) {
			for _, e := range c.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.lowerSwitch(s.Body, label, nil)

	case *ast.SelectStmt:
		done := b.newBlock("select.done")
		entry := b.block()
		var bodies []*Block
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cb := b.newBlock("select.case")
			entry.Succs = append(entry.Succs, cb)
			bodies = append(bodies, cb)
			b.cur = nil
			b.start(cb)
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			}
			b.breakTargets = append(b.breakTargets, done)
			if label != "" {
				b.labels[label].breakTo = done
			}
			b.stmtList(comm.Body)
			b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
			b.jump(done)
		}
		if len(bodies) == 0 {
			// select{} blocks forever: no successors.
			b.cur = nil
		} else {
			b.cur = nil
		}
		b.start(done)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if ls := b.labels[s.Label.Name]; ls != nil && ls.breakTo != nil {
					b.jump(ls.breakTo)
					return
				}
			}
			if n := len(b.breakTargets); n > 0 {
				b.jump(b.breakTargets[n-1])
				return
			}
			b.jump(b.g.Exit) // malformed input; stay safe
		case token.CONTINUE:
			if s.Label != nil {
				if ls := b.labels[s.Label.Name]; ls != nil && ls.contTo != nil {
					b.jump(ls.contTo)
					return
				}
			}
			if n := len(b.continueTargets); n > 0 {
				b.jump(b.continueTargets[n-1])
				return
			}
			b.jump(b.g.Exit)
		case token.GOTO:
			name := ""
			if s.Label != nil {
				name = s.Label.Name
			}
			from := b.block()
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: from, label: name})
			b.cur = nil
		case token.FALLTHROUGH:
			if n := len(b.switchCases); n > 0 {
				cases := b.switchCases[n-1]
				idx := b.switchIdx[n-1]
				if idx+1 < len(cases) {
					b.jump(cases[idx+1])
					return
				}
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminalCall(call) {
			b.jump(b.g.Exit)
		}

	default:
		// Leaf statements: assignments, declarations, inc/dec, channel
		// sends, go, defer, empty statements.
		b.add(s)
	}
}

// lowerSwitch lowers a (type) switch body: the current block fans out
// to every case; a missing default adds a fall-through edge to done.
func (b *cfgBuilder) lowerSwitch(body *ast.BlockStmt, label string, addExprs func(*ast.CaseClause)) {
	done := b.newBlock("switch.done")
	entry := b.block()
	var cases []*ast.CaseClause
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok {
			cases = append(cases, c)
		}
	}
	bodies := make([]*Block, len(cases))
	hasDefault := false
	for i, c := range cases {
		bodies[i] = b.newBlock("switch.case")
		entry.Succs = append(entry.Succs, bodies[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		entry.Succs = append(entry.Succs, done)
	}
	b.cur = nil

	b.switchCases = append(b.switchCases, bodies)
	b.switchIdx = append(b.switchIdx, 0)
	b.breakTargets = append(b.breakTargets, done)
	if label != "" {
		b.labels[label].breakTo = done
	}
	for i, c := range cases {
		b.switchIdx[len(b.switchIdx)-1] = i
		b.start(bodies[i])
		if addExprs != nil {
			addExprs(c)
		}
		b.stmtList(c.Body)
		b.jump(done)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.switchCases = b.switchCases[:len(b.switchCases)-1]
	b.switchIdx = b.switchIdx[:len(b.switchIdx)-1]
	b.start(done)
}

func (b *cfgBuilder) pushLoop(breakTo, contTo *Block, label string, head *Block) {
	b.breakTargets = append(b.breakTargets, breakTo)
	b.continueTargets = append(b.continueTargets, contTo)
	if label != "" {
		if ls := b.labels[label]; ls != nil {
			ls.breakTo = breakTo
			ls.contTo = contTo
			ls.target = head
		}
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// isTerminalCall recognizes calls that never return, syntactically:
// panic(...) and the well-known process terminators. Type information
// is deliberately not required so the CFG builder works on parse-only
// inputs (the fuzzer's diet).
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
