package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"asdsim/internal/lint/flow"
)

// The wirecheck pass guards the farm/cluster wire surface. Every struct
// reachable from the wire roots (cluster.Message, farm.Spec/Outcome,
// the provenance and trace codecs, span export) has its field names,
// types, tags, and order recorded in the checked-in wire.lock file.
// Renaming, retyping, reordering, or deleting a locked field breaks
// rolling coordinator/worker upgrades and stored-result compatibility,
// so it fails `go vet` until the lock is deliberately regenerated with
// `asdlint -write-wire-lock` and the diff reviewed. The pass also
// rejects unbounded wire-sized allocations in decode paths: a length
// read from untrusted input must be checked against a limit before it
// sizes a make().

// WirecheckAnalyzer is the wire-surface compatibility pass.
var WirecheckAnalyzer = &Analyzer{
	Name: "wirecheck",
	Doc:  "diff wire structs against wire.lock and require length guards in decoders",
	// Scope covers every package whose structs appear in the wire
	// surface: the root packages plus the config/result types their
	// closure reaches.
	Scope: PathScope(
		"asdsim/internal/cache",
		"asdsim/internal/cluster",
		"asdsim/internal/cluster/rpc",
		"asdsim/internal/core",
		"asdsim/internal/dram",
		"asdsim/internal/farm",
		"asdsim/internal/mc",
		"asdsim/internal/obs/prov",
		"asdsim/internal/obs/span",
		"asdsim/internal/prefetch",
		"asdsim/internal/sim",
		"asdsim/internal/slh",
		"asdsim/internal/stats",
		"asdsim/internal/stream",
		"asdsim/internal/trace",
	),
	Run: runWirecheck,
}

// WireLockName is the schema file wirecheck diffs against, found by
// walking up from the package directory (so fixture trees may carry
// their own lock while the repo root holds the real one).
const WireLockName = "wire.lock"

// WireRoots names the types whose reachable closure defines the wire
// surface: the cluster envelope, the farm job spec and outcome, and
// the provenance and span codec records. `asdlint -write-wire-lock`
// regenerates wire.lock from these.
var WireRoots = map[string][]string{
	"asdsim/internal/cluster":  {"Message"},
	"asdsim/internal/farm":     {"Spec", "Outcome"},
	"asdsim/internal/obs/prov": {"Stream"},
	"asdsim/internal/obs/span": {"Span", "Context"},
}

func runWirecheck(pass *Pass) {
	checkWireLock(pass)
	checkDecodeBounds(pass)
}

// checkWireLock diffs every locked struct declared in this package
// against its live shape.
func checkWireLock(pass *Pass) {
	if len(pass.Pkg.Files) == 0 {
		return
	}
	dir := filepath.Dir(pass.Pkg.Fset.Position(pass.Pkg.Files[0].Pos()).Filename)
	lock := loadWireLock(dir)
	if lock == nil {
		// No wire.lock anywhere above the package: nothing is locked.
		// The CI wire-compat gate separately insists the repo lock file
		// exists and matches a fresh regeneration.
		return
	}
	path := CanonicalPkgPath(pass.Pkg.Types.Path())
	scope := pass.Pkg.Types.Scope()
	for i := range lock.Structs {
		ls := &lock.Structs[i]
		if ls.Path != path {
			continue
		}
		obj, ok := scope.Lookup(ls.Name).(*types.TypeName)
		if !ok {
			pass.Report(pass.Pkg.Files[0].Package,
				"wire struct %s.%s is in wire.lock but no longer declared; regenerate with asdlint -write-wire-lock after reviewing compatibility", ls.Path, ls.Name)
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			pass.Report(obj.Pos(), "wire type %s.%s is locked as a struct but is no longer one", ls.Path, ls.Name)
			continue
		}
		live := flow.WireSurface([]*types.Named{named}).Lookup(ls.Path, ls.Name)
		if live == nil {
			continue
		}
		for _, msg := range flow.DiffStruct(ls, live) {
			pass.Report(obj.Pos(), "wire struct %s drifted from wire.lock: %s (regenerate with asdlint -write-wire-lock after reviewing compatibility)", ls.Name, msg)
		}
	}
}

// loadWireLock walks up from dir looking for a wire.lock file.
func loadWireLock(dir string) *flow.Schema {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil
	}
	for {
		p := filepath.Join(dir, WireLockName)
		if f, err := os.Open(p); err == nil {
			s, perr := flow.ParseSchema(f)
			f.Close()
			if perr != nil {
				return nil
			}
			return s
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil
		}
		dir = parent
	}
}

// boundedCallee matches helper names that bound their result: the
// repo's getN-style limit readers and the min/clamp family.
var boundedCallee = regexp.MustCompile(`(?i)(getn|readn|min|max|clamp|bound|limit|cap)`)

// checkDecodeBounds flags make([]T, n) in decode functions where n is
// not demonstrably bounded. A decode function is one that takes raw
// wire input: an io.Reader-like or a []byte parameter.
func checkDecodeBounds(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !takesWireInput(pass, fn) {
				continue
			}
			if _, trusted := pass.Pkg.funcTrustReason(fn, pass.Analyzer.Name); trusted {
				continue
			}
			checkDecodeFunc(pass, fn)
		}
	}
}

// takesWireInput reports whether fn has a parameter carrying raw wire
// bytes: []byte, io.Reader, or a concrete *bufio/*bytes reader.
func takesWireInput(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		t := pass.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if sl, ok := t.Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
		s := types.TypeString(t, nil)
		switch s {
		case "io.Reader", "io.ByteReader", "*bufio.Reader", "*bytes.Reader", "*bytes.Buffer":
			return true
		}
	}
	return false
}

func checkDecodeFunc(pass *Pass, fn *ast.FuncDecl) {
	// First sweep: collect every identifier that is compared against
	// something (a length guard) and every identifier assigned from a
	// bounding call, anywhere in the function (closures included).
	guarded := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name := rootIdentName(side); name != "" {
						guarded[name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBoundingCall(call) {
					continue
				}
				// Both `n := getN(...)` and `n, err := getN(...)`
				// bound their first result.
				if i < len(n.Lhs) {
					if name := rootIdentName(n.Lhs[i]); name != "" {
						guarded[name] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" || len(call.Args) < 2 {
			return true
		}
		t := pass.TypeOf(call.Args[0])
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Slice); !ok {
			return true
		}
		for _, sz := range call.Args[1:] {
			if msg := unboundedSize(pass, sz, guarded); msg != "" {
				pass.Report(sz.Pos(), "unbounded wire-sized allocation: %s; check the decoded length against a limit before make", msg)
			}
		}
		return true
	})
}

// unboundedSize returns a description when the size expression is not
// demonstrably bounded, else "".
func unboundedSize(pass *Pass, e ast.Expr, guarded map[string]bool) string {
	e = ast.Unparen(e)
	if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
		return "" // constant
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if isBoundingCall(e) {
			return ""
		}
		// Conversions like int(n) are transparent.
		if len(e.Args) == 1 {
			if tv, ok := pass.Pkg.Info.Types[e.Fun]; ok && tv.IsType() {
				return unboundedSize(pass, e.Args[0], guarded)
			}
		}
		return fmt.Sprintf("length comes from call %s", types.ExprString(e.Fun))
	case *ast.BinaryExpr:
		// An arithmetic combination is bounded iff both sides are.
		if msg := unboundedSize(pass, e.X, guarded); msg != "" {
			return msg
		}
		return unboundedSize(pass, e.Y, guarded)
	case *ast.Ident, *ast.SelectorExpr:
		if name := rootIdentName(e); name != "" && guarded[name] {
			return ""
		}
		return fmt.Sprintf("length %s is never compared against a limit", types.ExprString(e))
	}
	return fmt.Sprintf("length %s is not demonstrably bounded", types.ExprString(e))
}

// isBoundingCall reports whether a call's callee name implies its
// result is bounded: len/cap, min, and getN-style limit readers.
func isBoundingCall(call *ast.CallExpr) bool {
	var name string
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	if name == "len" || name == "cap" {
		return true
	}
	return boundedCallee.MatchString(name)
}

// rootIdentName returns the leftmost identifier of an ident or
// selector chain ("ref" for ref.n), or "".
func rootIdentName(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			// Guarding any part of the chain counts; key on the full
			// rendered expression first, falling back to the root.
			return strings.SplitN(types.ExprString(x), ".", 2)[0]
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}
