package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCFGBuilder pins BuildCFG's contract on arbitrary parseable Go:
// it never panics, every leaf statement of a function body lands in
// exactly one block, the graph is closed (all successor pointers stay
// inside Graph.Blocks), and every block is either reachable from Entry
// or reported here as dead. The seed corpus is the lint fixture trees
// under internal/lint/testdata plus handwritten control-flow knots
// (goto cycles, trailing fallthrough, labeled break and continue,
// empty and defaulted selects, a type switch).
func FuzzCFGBuilder(f *testing.F) {
	seedFromTestdata(f)
	for _, src := range []string{
		"package p\nfunc f() { L: goto L }",
		"package p\nfunc f() { goto missing }",
		"package p\nfunc f(x int) { switch x { case 1: fallthrough } }",
		"package p\nfunc f() { L: for { break L } }",
		"package p\nfunc f() { select {} }",
		"package p\nfunc f(ch chan int) { for range ch { continue } }",
		"package p\nfunc f() { defer func() { recover() }(); panic(1) }",
		"package p\nfunc f(x int) { if x > 0 { return }; x++ }",
		"package p\nfunc f() { break; continue; fallthrough }",
		"package p\nfunc f(v any) int { switch v.(type) { case int: return 1; default: }; return 0 }",
		"package p\nfunc f(n int) { O: for i := 0; i < n; i++ { for { if i > 1 { continue O }; break } } }",
		"package p\nfunc f(ch chan int) { select { case ch <- 1: default: goto done }; done: }",
	} {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			return // only parseable inputs are in contract
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			g := BuildCFG(fn.Body)
			checkGraph(t, fset, g, fn.Body)
		}
	})
}

func seedFromTestdata(f *testing.F) {
	root := filepath.Join("..", "testdata")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f.Add(string(data))
		return nil
	})
	if err != nil {
		f.Fatalf("seeding from %s: %v", root, err)
	}
}

// checkGraph asserts the structural invariants of one built CFG.
func checkGraph(t *testing.T, fset *token.FileSet, g *Graph, body *ast.BlockStmt) {
	t.Helper()
	if g.Entry == nil || g.Exit == nil {
		t.Fatalf("graph missing entry/exit: %+v", g)
	}
	inGraph := map[*Block]bool{}
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Fatalf("block %d carries Index %d", i, b.Index)
		}
		inGraph[b] = true
	}
	if !inGraph[g.Entry] || !inGraph[g.Exit] {
		t.Fatalf("entry/exit not listed in Blocks")
	}

	// Closure: every edge stays inside the graph. Placement: every leaf
	// node appears in exactly one block.
	placed := map[ast.Node]*Block{}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !inGraph[s] {
				t.Fatalf("block %d (%s) edges to a block outside the graph", b.Index, b.Kind)
			}
		}
		for _, n := range b.Nodes {
			if prev, ok := placed[n]; ok {
				t.Fatalf("node at %s placed in blocks %d and %d", fset.Position(n.Pos()), prev.Index, b.Index)
			}
			placed[n] = b
		}
	}

	// Completeness: every leaf statement the builder lowers is placed.
	for _, s := range body.List {
		eachLeafStmt(s, func(leaf ast.Stmt) {
			if placed[leaf] == nil {
				t.Fatalf("statement at %s (%T) landed in no block", fset.Position(leaf.Pos()), leaf)
			}
		})
	}

	// Reachable-or-reported: dead blocks are legal (code after a
	// terminator, goto-orphaned labels) but must be visible, not lost.
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] && len(b.Nodes) > 0 {
			t.Logf("dead block %d (%s) at %s holds %d nodes", b.Index, b.Kind, fset.Position(b.Pos()), len(b.Nodes))
		}
	}

	// The solver must converge on whatever shape the builder produced;
	// block-count reachability is a monotone finite lattice.
	counts := Forward(g, 0,
		func(a, b int) int { return max(a, b) },
		func(a, b int) bool { return a == b },
		func(b *Block, in int) int { return in + len(b.Nodes) })
	for b, n := range counts {
		if n < 0 || !inGraph[b] {
			t.Fatalf("solver produced state %d for foreign block %p", n, b)
		}
	}
}

// eachLeafStmt visits every statement that BuildCFG lowers to a block
// node, recursing through compound statements exactly as the builder
// does (it does not descend into FuncLit bodies, which belong to other
// functions' graphs).
func eachLeafStmt(s ast.Stmt, visit func(ast.Stmt)) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range s.List {
			eachLeafStmt(inner, visit)
		}
	case *ast.LabeledStmt:
		eachLeafStmt(s.Stmt, visit)
	case *ast.IfStmt:
		eachLeafStmt(s.Init, visit)
		eachLeafStmt(s.Body, visit)
		eachLeafStmt(s.Else, visit)
	case *ast.ForStmt:
		eachLeafStmt(s.Init, visit)
		eachLeafStmt(s.Body, visit)
		eachLeafStmt(s.Post, visit)
	case *ast.RangeStmt:
		eachLeafStmt(s.Body, visit)
	case *ast.SwitchStmt:
		eachLeafStmt(s.Init, visit)
		for _, cl := range s.Body.List {
			if c, ok := cl.(*ast.CaseClause); ok {
				for _, inner := range c.Body {
					eachLeafStmt(inner, visit)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		eachLeafStmt(s.Init, visit)
		for _, cl := range s.Body.List {
			if c, ok := cl.(*ast.CaseClause); ok {
				for _, inner := range c.Body {
					eachLeafStmt(inner, visit)
				}
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if c, ok := cl.(*ast.CommClause); ok {
				eachLeafStmt(c.Comm, visit)
				for _, inner := range c.Body {
					eachLeafStmt(inner, visit)
				}
			}
		}
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough become edges, not nodes.
	default:
		visit(s)
	}
}
