// Package lint is asdsim's custom static-analysis layer: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis that
// statically enforces the invariants the simulator's correctness story
// rests on — bit-for-bit determinism, an allocation-free steady-state
// kernel, telemetry that cannot perturb outcomes, exhaustive handling
// of every probe-event kind, an acyclic lock order, and a wire surface
// that changes only on purpose.
//
// The package defines the framework (Analyzer, Pass, Diagnostic, the
// //asd:* directive language and the hot-path call-graph machinery)
// and six concrete analyzers. cmd/asdlint runs them: it speaks
// the `go vet -vettool` unit-checker protocol so the suite runs under
// the standard build machinery, with per-package facts flowing through
// vet's .vetx files.
//
// Directives:
//
//	//asd:hotpath
//	    On a function's doc comment. Marks the function as part of the
//	    steady-state hot path: the noalloc/noperturb analyzers check it
//	    and everything it calls (transitively, within the package), and
//	    export a "hotpath-certified" fact so callers in other packages
//	    may call it from their own hot paths.
//
//	//asd:allow <pass> <reason>
//	    Suppresses findings of <pass>. On the offending line (or the
//	    line above) it suppresses that line's findings. In a function's
//	    doc comment it marks the whole function as a trusted boundary
//	    for <pass>: the function may be called from checked code but
//	    its body is exempt (e.g. an epoch roll that allocates rarely,
//	    off the per-cycle path). The reason string is mandatory.
//
//	//asd:exhaustive
//	    On a switch statement over a kind-enumeration type, or on a
//	    `var` whose type is an array indexed by such a type. Requires
//	    every declared constant of the type to be handled (switch) or
//	    named (array). See the exhaustive analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"asdsim/internal/lint/flow"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the pass in diagnostics and //asd:allow tags.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Scope reports whether the pass applies to a package path. A nil
	// Scope applies everywhere. Drivers may bypass Scope for fixture
	// runs (see Config.IgnoreScope).
	Scope func(pkgPath string) bool
	// Run performs the check, reporting findings via pass.Report.
	Run func(pass *Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Pass    string
	Message string
}

// Package bundles a type-checked package for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives map[string]map[int][]directive // filename -> line -> directives
	cg         *flow.CallGraph
	hot        *hotState
}

// Facts is the cross-package information a checked package exports:
// the set of functions (by types.Func FullName) that the hot-path
// analyzers have certified as safe to call from hot code. It travels
// between `go vet` compilation units through vet's .vetx files.
type Facts struct {
	// Hotpath maps a function's FullName to true when the function is
	// in the package's checked hot-path closure or is an explicitly
	// trusted boundary.
	Hotpath map[string]bool
	// Lock maps a function's FullName to its transitive lock summary
	// (which lock classes it may acquire, whether it may block, and the
	// lock-order edges its body establishes), exported by the lockorder
	// pass so callers in dependent packages compose with it.
	Lock map[string]*LockFact
}

// Config parameterizes one driver invocation of Check.
type Config struct {
	// DepFacts returns the facts of an imported package, or nil when
	// none are known (e.g. stdlib).
	DepFacts func(pkgPath string) *Facts
	// IgnoreScope runs every analyzer regardless of its Scope; fixture
	// tests use it so fixtures need not live under real import paths.
	IgnoreScope bool
	// IncludeTests includes findings in *_test.go files. Off by
	// default: the invariants guard shipped simulator code, and `go
	// vet ./...` feeds test variants of every package through the
	// driver.
	IncludeTests bool
}

// Pass carries the state for one analyzer over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Config   *Config

	diags []Diagnostic
	facts *Facts
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Pass: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// exportLockFact publishes a function's lock summary for dependent
// packages (serialized into the .vetx facts file by the driver).
func (p *Pass) exportLockFact(fullName string, f *LockFact) {
	if p.facts.Lock == nil {
		p.facts.Lock = map[string]*LockFact{}
	}
	p.facts.Lock[fullName] = f
}

// TypeOf is shorthand for the package's types.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Result is the outcome of checking one package.
type Result struct {
	Diags []Diagnostic
	Facts *Facts
	// Suppressed holds findings that an //asd:allow directive silenced,
	// with the directive's position, for machine-readable audit output.
	Suppressed []SuppressedDiag
}

// SuppressedDiag is a finding plus the directive that silenced it.
type SuppressedDiag struct {
	Diag         Diagnostic
	SuppressedBy token.Pos
}

// All returns the six analyzers in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NoallocAnalyzer,
		NoperturbAnalyzer,
		ExhaustiveAnalyzer,
		LockorderAnalyzer,
		WirecheckAnalyzer,
	}
}

// CanonicalPkgPath strips go vet's test-variant suffix ("pkg
// [pkg.test]") so Scope matching sees the underlying import path.
func CanonicalPkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// Check runs the analyzers over pkg and returns the surviving
// diagnostics (after //asd:allow filtering, sorted by position) plus
// the package's exported facts.
func Check(pkg *Package, cfg *Config, analyzers ...*Analyzer) *Result {
	if cfg == nil {
		cfg = &Config{}
	}
	pkg.buildDirectives()
	res := &Result{Facts: &Facts{Hotpath: map[string]bool{}, Lock: map[string]*LockFact{}}}

	// Directive hygiene is checked once, driver-side: every allow tag
	// must name a pass and carry a reason.
	path := CanonicalPkgPath(pkg.Types.Path())
	for _, byLine := range pkg.directives {
		for _, dirs := range byLine {
			for _, d := range dirs {
				if d.kind != dirAllow {
					continue
				}
				if d.pass == "" || d.reason == "" {
					res.Diags = append(res.Diags, Diagnostic{
						Pos:     d.pos,
						Pass:    "directive",
						Message: "malformed //asd:allow: want //asd:allow <pass> <reason>",
					})
				} else if !knownPass(d.pass) {
					res.Diags = append(res.Diags, Diagnostic{
						Pos:     d.pos,
						Pass:    "directive",
						Message: fmt.Sprintf("//asd:allow names unknown pass %q", d.pass),
					})
				}
			}
		}
	}

	for _, a := range analyzers {
		if !cfg.IgnoreScope && a.Scope != nil && !a.Scope(path) {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, Config: cfg, facts: res.Facts}
		a.Run(pass)
		for _, d := range pass.diags {
			if !cfg.IncludeTests && strings.HasSuffix(pkg.Fset.Position(d.Pos).Filename, "_test.go") {
				continue
			}
			if by, ok := pkg.allowed(a.Name, pkg.Fset.Position(d.Pos)); ok {
				res.Suppressed = append(res.Suppressed, SuppressedDiag{Diag: d, SuppressedBy: by})
				continue
			}
			res.Diags = append(res.Diags, d)
		}
	}

	// Facts come from the hot-path machinery regardless of which
	// analyzers ran, so a facts-only (VetxOnly) run still certifies.
	hot := pkg.hotpath(cfg)
	for fn := range hot.closure {
		if obj := pkg.funcObj(fn); obj != nil {
			res.Facts.Hotpath[obj.FullName()] = true
		}
	}
	for obj := range hot.trustedObjs {
		res.Facts.Hotpath[obj.FullName()] = true
	}

	sort.Slice(res.Diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(res.Diags[i].Pos), pkg.Fset.Position(res.Diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return res.Diags[i].Message < res.Diags[j].Message
	})
	return res
}

func knownPass(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// ---- directives ----

type dirKind uint8

const (
	dirHotpath dirKind = iota
	dirAllow
	dirExhaustive
)

type directive struct {
	kind   dirKind
	pass   string // dirAllow: which analyzer is excused
	reason string // dirAllow: mandatory justification
	pos    token.Pos
	line   int
}

// buildDirectives indexes every //asd:* comment by file and line.
func (pkg *Package) buildDirectives() {
	if pkg.directives != nil {
		return
	}
	pkg.directives = map[string]map[int][]directive{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "asd:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := directive{pos: c.Pos(), line: pos.Line}
				fields := strings.Fields(text)
				switch fields[0] {
				case "asd:hotpath":
					d.kind = dirHotpath
				case "asd:allow":
					d.kind = dirAllow
					if len(fields) > 1 {
						d.pass = fields[1]
					}
					if len(fields) > 2 {
						d.reason = strings.Join(fields[2:], " ")
					}
				case "asd:exhaustive":
					d.kind = dirExhaustive
				default:
					continue
				}
				byLine := pkg.directives[pos.Filename]
				if byLine == nil {
					byLine = map[int][]directive{}
					pkg.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// at returns directives attached to a line: those on the line itself
// or on the line immediately above.
func (pkg *Package) at(filename string, line int) []directive {
	byLine := pkg.directives[filename]
	if byLine == nil {
		return nil
	}
	out := byLine[line]
	out = append(out[:len(out):len(out)], byLine[line-1]...)
	return out
}

// allowed reports whether a diagnostic of pass at posn is suppressed
// by a line-level allow directive (with a reason; reasonless tags are
// rejected separately and do not suppress).
func (pkg *Package) allowed(pass string, posn token.Position) (token.Pos, bool) {
	for _, d := range pkg.at(posn.Filename, posn.Line) {
		if d.kind == dirAllow && d.pass == pass && d.reason != "" {
			return d.pos, true
		}
	}
	return token.NoPos, false
}

// docDirectives returns directives written in a function's doc-comment
// region: from the start of its doc comment (or its own first line)
// through the line the declaration starts on.
func (pkg *Package) docDirectives(fn *ast.FuncDecl) []directive {
	posn := pkg.Fset.Position(fn.Pos())
	first := posn.Line
	if fn.Doc != nil {
		first = pkg.Fset.Position(fn.Doc.Pos()).Line
	}
	var out []directive
	byLine := pkg.directives[posn.Filename]
	for line := first; line <= posn.Line; line++ {
		out = append(out, byLine[line]...)
	}
	return out
}

// funcIsHotpathRoot reports whether fn carries //asd:hotpath.
func (pkg *Package) funcIsHotpathRoot(fn *ast.FuncDecl) bool {
	for _, d := range pkg.docDirectives(fn) {
		if d.kind == dirHotpath {
			return true
		}
	}
	return false
}

// funcTrustReason returns the reason string when fn carries a
// function-level //asd:allow for pass, marking it a trusted boundary.
func (pkg *Package) funcTrustReason(fn *ast.FuncDecl, pass string) (string, bool) {
	for _, d := range pkg.docDirectives(fn) {
		if d.kind == dirAllow && d.pass == pass && d.reason != "" {
			return d.reason, true
		}
	}
	return "", false
}

// funcObj resolves a FuncDecl to its types.Func.
func (pkg *Package) funcObj(fn *ast.FuncDecl) *types.Func {
	obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
	return obj
}

// ---- hot-path closure ----

// hotState is the per-package hot-path computation shared by the
// noalloc and noperturb analyzers and by facts export.
type hotState struct {
	// closure is the set of functions reachable from //asd:hotpath
	// roots through same-package static calls, stopping at trusted
	// boundaries. Values record how the function entered the closure
	// (for diagnostics).
	closure map[*ast.FuncDecl]string
	// roots are the annotated entry points.
	roots map[*ast.FuncDecl]bool
	// trustedObjs are functions excused wholesale by a function-level
	// //asd:allow for either hot-path pass; they are callable from hot
	// code and exported as facts, but their bodies are not checked.
	trustedObjs map[*types.Func]bool
}

// hotpathPasses are the analyzers whose function-level //asd:allow
// marks a trusted boundary.
var hotpathPasses = []string{"hotpath-noalloc", "noperturb"}

// hotpath computes (once) the package's hot-path closure.
func (pkg *Package) hotpath(cfg *Config) *hotState {
	if pkg.hot != nil {
		return pkg.hot
	}
	pkg.buildDirectives()
	h := &hotState{
		closure:     map[*ast.FuncDecl]string{},
		roots:       map[*ast.FuncDecl]bool{},
		trustedObjs: map[*types.Func]bool{},
	}
	pkg.hot = h

	// Roots seed the walk in source order, so a function reachable
	// from several roots is always attributed to the one declared
	// first.
	cg := pkg.callGraph()
	var queue []*types.Func
	for _, obj := range cg.Funcs() {
		fn := cg.Decls[obj]
		for _, pass := range hotpathPasses {
			if _, ok := pkg.funcTrustReason(fn, pass); ok {
				h.trustedObjs[obj] = true
			}
		}
		if pkg.funcIsHotpathRoot(fn) {
			h.roots[fn] = true
			h.closure[fn] = "//asd:hotpath"
			queue = append(queue, obj)
		}
	}

	// Breadth-first closure over the static call graph. Dynamic calls
	// (interfaces, func values) contribute no edges; the analyzers
	// police them per call site.
	for len(queue) > 0 {
		caller := queue[0]
		queue = queue[1:]
		for _, callee := range cg.Callees[caller] {
			decl := cg.Decls[callee]
			if h.trustedObjs[callee] || h.closure[decl] != "" {
				continue
			}
			h.closure[decl] = "called from " + caller.Name()
			queue = append(queue, callee)
		}
	}
	return h
}

// callGraph builds (once) the package's static call graph, which the
// hot-path closure and the lockorder pass share.
func (pkg *Package) callGraph() *flow.CallGraph {
	if pkg.cg == nil {
		pkg.cg = flow.BuildCallGraph(pkg.Fset, pkg.Files, pkg.Types, pkg.Info.Defs, pkg.StaticCallee)
	}
	return pkg.cg
}

// StaticCallee resolves the target of a call when it is a statically
// known function or method (not an interface dispatch or a func-typed
// value). Generic instantiations resolve to their origin.
func (pkg *Package) StaticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			obj = sel.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel] // package-qualified call
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = pkg.Info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = pkg.Info.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// CalleeKind classifies a call for the hot-path analyzers.
type CalleeKind uint8

const (
	// CalleeStatic is a direct call to a known function or method.
	CalleeStatic CalleeKind = iota
	// CalleeInterface is a dynamic dispatch through an interface.
	CalleeInterface
	// CalleeFuncValue is a call of a func-typed variable or field.
	CalleeFuncValue
	// CalleeBuiltin is a call of a predeclared builtin.
	CalleeBuiltin
	// CalleeConversion is a type conversion, not a call.
	CalleeConversion
)

// ClassifyCall reports what kind of call site this is; fn is non-nil
// only for CalleeStatic, iface names the interface type for
// CalleeInterface, and builtin names the builtin for CalleeBuiltin.
func (pkg *Package) ClassifyCall(call *ast.CallExpr) (kind CalleeKind, fn *types.Func, iface string, builtin string) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return CalleeConversion, nil, "", ""
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Builtin:
			return CalleeBuiltin, nil, "", obj.Name()
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
			return CalleeInterface, nil, typeName(sel.Recv()), ""
		}
	}
	if f := pkg.StaticCallee(call); f != nil {
		return CalleeStatic, f, "", ""
	}
	return CalleeFuncValue, nil, "", ""
}

// typeName renders a type's qualified name ("pkg/path.Name"), or its
// string form for unnamed types.
func typeName(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	case *types.Pointer:
		return typeName(t.Elem())
	}
	return t.String()
}

// PathScope builds a Scope func matching any of the given import
// paths exactly.
func PathScope(paths ...string) func(string) bool {
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	return func(path string) bool { return set[path] }
}
