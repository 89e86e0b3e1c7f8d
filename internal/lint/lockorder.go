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

// LockorderAnalyzer is the concurrency half of the interprocedural
// flow suite. It computes, for every function, which sync.Mutex /
// sync.RWMutex locks the function may acquire (directly or through
// same-module callees, with cross-package effects flowing through
// vet's facts), then runs a flow-sensitive held-lock analysis over
// each function's CFG and reports:
//
//   - lock-order cycles: lock A held while acquiring B somewhere and B
//     held while acquiring A somewhere else — the classic deadlock
//     shape, across the whole farm/cluster layer;
//   - blocking operations under a lock: channel sends/receives,
//     select, time.Sleep, WaitGroup/Cond waits, net/http round trips,
//     and file/stream I/O performed (or reached through a callee)
//     while a lock is held;
//   - double-acquire: re-acquiring a lock class on the same receiver
//     path while it is already held.
//
// Locks are identified by class — the named type and field that own
// the mutex ("pkg.Coordinator.mu") — so the order graph is finite and
// stable. Held sets are must-hold (intersection at merges), keeping
// the pass quiet on drop-and-reacquire patterns. Function bodies of
// closures, go statements, and defers are not attributed to the
// enclosing function's held path (defer mu.Unlock() therefore keeps
// the lock held to function exit, which is exactly the idiom's
// semantics).
var LockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: `build the global lock-order graph over the farm/cluster layer and
report order cycles, blocking operations under a held lock, and
double-acquires on the same receiver path`,
	Scope: PathScope(
		"asdsim/internal/farm",
		"asdsim/internal/cluster",
		"asdsim/internal/cluster/rpc",
		"asdsim/internal/workload",
		"asdsim/cmd/asdfarm",
	),
	Run: runLockorder,
}

// LockFact is a function's transitive lock summary, exported through
// vet's facts so callers in other packages compose with it.
type LockFact struct {
	// Acquires lists lock classes the function may acquire (and not
	// release before further effects), sorted.
	Acquires []string
	// Blocking lists the blocking-operation kinds the function may
	// perform while running, sorted.
	Blocking []string
	// Edges lists lock-order pairs (held, then-acquired) the function's
	// body (transitively) establishes, sorted.
	Edges [][2]string
}

func (f *LockFact) empty() bool {
	return f == nil || (len(f.Acquires) == 0 && len(f.Blocking) == 0 && len(f.Edges) == 0)
}

func (f *LockFact) equal(g *LockFact) bool {
	if f == nil || g == nil {
		return f.empty() && g.empty()
	}
	if len(f.Acquires) != len(g.Acquires) || len(f.Blocking) != len(g.Blocking) || len(f.Edges) != len(g.Edges) {
		return false
	}
	for i := range f.Acquires {
		if f.Acquires[i] != g.Acquires[i] {
			return false
		}
	}
	for i := range f.Blocking {
		if f.Blocking[i] != g.Blocking[i] {
			return false
		}
	}
	for i := range f.Edges {
		if f.Edges[i] != g.Edges[i] {
			return false
		}
	}
	return true
}

// heldLock is one entry of the flow-sensitive held set.
type heldLock struct {
	class string // lock class ("pkg.Type.field")
	recv  string // receiver path as written ("c.mu"), for double-acquire
	read  bool   // RLock rather than Lock
}

// lockState is a sorted, immutable held set.
type lockState []heldLock

func (s lockState) find(class, recv string) int {
	for i, h := range s {
		if h.class == class && h.recv == recv {
			return i
		}
	}
	return -1
}

func (s lockState) holdsClass(class string) bool {
	for _, h := range s {
		if h.class == class {
			return true
		}
	}
	return false
}

func (s lockState) with(h heldLock) lockState {
	out := make(lockState, 0, len(s)+1)
	out = append(out, s...)
	out = append(out, h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].class != out[j].class {
			return out[i].class < out[j].class
		}
		return out[i].recv < out[j].recv
	})
	return out
}

func (s lockState) without(class, recv string) lockState {
	i := s.find(class, recv)
	if i < 0 {
		// Fall back to releasing any instance of the class (unlock via
		// an aliased path).
		for j, h := range s {
			if h.class == class {
				i = j
				break
			}
		}
	}
	if i < 0 {
		return s
	}
	out := make(lockState, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

func (s lockState) equal(t lockState) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// intersect keeps the locks held on both paths (must-hold join).
func (s lockState) intersect(t lockState) lockState {
	var out lockState
	for _, h := range s {
		if t.find(h.class, h.recv) >= 0 {
			out = append(out, h)
		}
	}
	return out
}

func (s lockState) classes() string {
	names := make([]string, len(s))
	for i, h := range s {
		names[i] = h.class
	}
	return strings.Join(names, ", ")
}

// lockAnalysis is the per-package state of one lockorder run.
type lockAnalysis struct {
	pass *Pass
	cg   *flow.CallGraph
	// sums are the per-function summaries being fixpointed.
	sums map[*types.Func]*LockFact
	// edges is the package's lock-order graph: held -> acquired ->
	// first local position establishing the edge (NoPos for edges known
	// only from dependency facts).
	edges map[string]map[string]token.Pos
	// nonblockingComms are comm statements of selects that have a
	// default clause (non-blocking sends/receives).
	nonblockingComms map[ast.Node]bool
	// rangeChans are range operands of channel type (blocking receives).
	rangeChans map[ast.Node]bool
}

func runLockorder(pass *Pass) {
	pkg := pass.Pkg
	a := &lockAnalysis{
		pass:             pass,
		sums:             map[*types.Func]*LockFact{},
		edges:            map[string]map[string]token.Pos{},
		nonblockingComms: map[ast.Node]bool{},
		rangeChans:       map[ast.Node]bool{},
	}
	a.cg = pkg.callGraph()
	a.indexCommContexts()

	// Phase 1: fixpoint the per-function transitive summaries.
	a.cg.Fixpoint(func(fn *types.Func, decl *ast.FuncDecl) bool {
		next := a.summarize(fn, decl)
		if next.equal(a.sums[fn]) {
			return false
		}
		a.sums[fn] = next
		return true
	})

	// Seed the order graph with edges from dependency facts, so a cycle
	// closing across packages is visible from the closing side.
	for _, imp := range pkg.Types.Imports() {
		facts := pass.depFacts(imp.Path())
		if facts == nil {
			continue
		}
		for _, lf := range facts.Lock {
			for _, e := range lf.Edges {
				a.addEdge(e[0], e[1], token.NoPos)
			}
		}
	}

	// Phase 2: flow-sensitive held-lock walk of every function,
	// reporting findings and recording local order edges.
	for _, fn := range a.cg.Funcs() {
		decl := a.cg.Decls[fn]
		if _, trusted := pkg.funcTrustReason(decl, pass.Analyzer.Name); trusted {
			continue
		}
		a.walkFunc(fn, decl)
	}

	// Export summaries as facts for dependent packages, plus the
	// package's whole order graph (locally witnessed edges and the
	// seeded ones, so order knowledge flows transitively) under a
	// synthetic key that cannot collide with a function name.
	for fn, sum := range a.sums {
		if !sum.empty() {
			pass.exportLockFact(fn.FullName(), sum)
		}
	}
	orderFact := &LockFact{}
	for from, tos := range a.edges {
		for to := range tos {
			orderFact.Edges = append(orderFact.Edges, [2]string{from, to})
		}
	}
	if len(orderFact.Edges) > 0 {
		sort.Slice(orderFact.Edges, func(i, j int) bool {
			if orderFact.Edges[i][0] != orderFact.Edges[j][0] {
				return orderFact.Edges[i][0] < orderFact.Edges[j][0]
			}
			return orderFact.Edges[i][1] < orderFact.Edges[j][1]
		})
		pass.exportLockFact(CanonicalPkgPath(pkg.Types.Path())+".<order>", orderFact)
	}

	a.reportCycles()
}

// indexCommContexts records which select comm statements are
// non-blocking (their select has a default) and which range operands
// are channels.
func (a *lockAnalysis) indexCommContexts() {
	pkg := a.pass.Pkg
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				hasDefault := false
				for _, cl := range n.Body.List {
					if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
						hasDefault = true
					}
				}
				if hasDefault {
					for _, cl := range n.Body.List {
						if c, ok := cl.(*ast.CommClause); ok && c.Comm != nil {
							a.nonblockingComms[c.Comm] = true
						}
					}
				}
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						a.rangeChans[n.X] = true
					}
				}
			}
			return true
		})
	}
}

// summarize computes fn's flow-insensitive transitive summary from its
// body plus the current summaries of its callees.
func (a *lockAnalysis) summarize(fn *types.Func, decl *ast.FuncDecl) *LockFact {
	pkg := a.pass.Pkg
	if _, trusted := pkg.funcTrustReason(decl, a.pass.Analyzer.Name); trusted {
		return &LockFact{}
	}
	acq := map[string]bool{}
	blk := map[string]bool{}
	edges := map[[2]string]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false // not on the caller's lock path
		case *ast.SendStmt:
			if !a.nonblockingComms[n] {
				blk["channel send"] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blk["channel receive"] = true
			}
		case *ast.CallExpr:
			if class, recv, op, ok := a.lockOp(n); ok {
				_ = recv
				if op == lockAcquire || op == lockAcquireRead {
					acq[class] = true
				}
				return true
			}
			callee := pkg.StaticCallee(n)
			if callee == nil {
				return true
			}
			if kind := blockingCallKind(callee); kind != "" {
				blk[kind] = true
				return true
			}
			if eff := a.calleeEffects(callee); eff != nil {
				for _, c := range eff.Acquires {
					acq[c] = true
				}
				for _, k := range eff.Blocking {
					blk[k] = true
				}
				for _, e := range eff.Edges {
					edges[e] = true
				}
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
	for x := range a.rangeChans {
		// Channel ranges inside this body count as blocking receives.
		if decl.Body.Pos() <= x.Pos() && x.End() <= decl.Body.End() {
			blk["channel receive"] = true
		}
	}

	out := &LockFact{}
	for c := range acq {
		out.Acquires = append(out.Acquires, c)
	}
	for k := range blk {
		out.Blocking = append(out.Blocking, k)
	}
	for e := range edges {
		out.Edges = append(out.Edges, e)
	}
	sort.Strings(out.Acquires)
	sort.Strings(out.Blocking)
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out
}

// calleeEffects resolves a static callee's lock summary: same-package
// from the fixpoint, cross-package from dependency facts.
func (a *lockAnalysis) calleeEffects(callee *types.Func) *LockFact {
	pkg := a.pass.Pkg
	if callee.Pkg() == pkg.Types {
		return a.sums[callee]
	}
	if callee.Pkg() == nil {
		return nil
	}
	facts := a.pass.depFacts(callee.Pkg().Path())
	if facts == nil {
		return nil
	}
	return facts.Lock[callee.FullName()]
}

// walkFunc solves the held-lock dataflow over fn's CFG, then replays
// each block once with its input state to report findings and record
// order edges.
func (a *lockAnalysis) walkFunc(fn *types.Func, decl *ast.FuncDecl) {
	g := flow.BuildCFG(decl.Body)
	transfer := func(b *flow.Block, in lockState) lockState {
		st := in
		for _, n := range b.Nodes {
			st = a.applyNode(st, n, false)
		}
		return st
	}
	in := flow.Forward(g, lockState(nil),
		func(x, y lockState) lockState { return x.intersect(y) },
		func(x, y lockState) bool { return x.equal(y) },
		transfer)

	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		st, ok := in[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			st = a.applyNode(st, n, true)
		}
	}
}

// applyNode threads one CFG node through the held-lock state. With
// report set it also emits findings and records order edges (the
// reporting replay); otherwise it only transfers state (the solver).
func (a *lockAnalysis) applyNode(st lockState, node ast.Node, report bool) lockState {
	pkg := a.pass.Pkg
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if report && len(st) > 0 && !a.nonblockingComms[n] {
				a.pass.Report(n.Pos(), "channel send while holding %s; a blocked receiver stalls every other holder", st.classes())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && report && len(st) > 0 && !a.commIsNonblocking(n) {
				a.pass.Report(n.Pos(), "channel receive while holding %s; a quiet sender stalls every other holder", st.classes())
			}
		case *ast.CallExpr:
			if class, recv, op, ok := a.lockOp(n); ok {
				switch op {
				case lockAcquire, lockAcquireRead:
					if report {
						if st.find(class, recv) >= 0 {
							a.pass.Report(n.Pos(), "%s acquired while already held on the same receiver path (%s): guaranteed self-deadlock", class, recv)
						} else if st.holdsClass(class) {
							a.pass.Report(n.Pos(), "second instance of %s acquired while one is held; without a global instance order this can deadlock", class)
						}
						for _, h := range st {
							if h.class != class {
								a.addEdge(h.class, class, n.Pos())
							}
						}
					}
					st = st.with(heldLock{class: class, recv: recv, read: op == lockAcquireRead})
				case lockRelease:
					st = st.without(class, recv)
				}
				return false // don't descend into the lock call
			}
			callee := pkg.StaticCallee(n)
			if callee == nil {
				return true
			}
			if kind := blockingCallKind(callee); kind != "" {
				if report && len(st) > 0 {
					a.pass.Report(n.Pos(), "%s (%s) while holding %s; the lock is pinned for the full operation", callee.FullName(), kind, st.classes())
				}
				return true
			}
			eff := a.calleeEffects(callee)
			if eff.empty() {
				return true
			}
			if report && len(st) > 0 {
				if len(eff.Blocking) > 0 {
					a.pass.Report(n.Pos(), "call to %s may block (%s) while holding %s", callee.FullName(), strings.Join(eff.Blocking, ", "), st.classes())
				}
				for _, c := range eff.Acquires {
					if st.holdsClass(c) {
						a.pass.Report(n.Pos(), "call to %s acquires %s which is already held: potential self-deadlock through the call chain", callee.FullName(), c)
						continue
					}
					for _, h := range st {
						a.addEdge(h.class, c, n.Pos())
					}
				}
			}
			return true
		default:
			if a.rangeChans[n] {
				if report && len(st) > 0 {
					a.pass.Report(n.Pos(), "range over channel while holding %s; iteration blocks until the channel closes", st.classes())
				}
			}
		}
		return true
	}
	ast.Inspect(node, visit)
	return st
}

// commIsNonblocking reports whether a receive expression is the comm
// operation of a select that has a default clause.
func (a *lockAnalysis) commIsNonblocking(recv *ast.UnaryExpr) bool {
	for comm := range a.nonblockingComms {
		switch c := comm.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(c.X) == recv {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range c.Rhs {
				if ast.Unparen(rhs) == recv {
					return true
				}
			}
		}
	}
	return false
}

type lockOpKind uint8

const (
	lockAcquire lockOpKind = iota
	lockAcquireRead
	lockRelease
)

// lockMethodOps maps sync method names to operations.
var lockMethodOps = map[string]lockOpKind{
	"Lock":     lockAcquire,
	"TryLock":  lockAcquire, // conservatively an acquire
	"RLock":    lockAcquireRead,
	"TryRLock": lockAcquireRead,
	"Unlock":   lockRelease,
	"RUnlock":  lockRelease,
}

// lockOp recognizes a sync.Mutex/RWMutex method call and resolves the
// lock's class and receiver path.
func (a *lockAnalysis) lockOp(call *ast.CallExpr) (class, recv string, op lockOpKind, ok bool) {
	pkg := a.pass.Pkg
	callee := pkg.StaticCallee(call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", "", 0, false
	}
	op, known := lockMethodOps[callee.Name()]
	if !known {
		return "", "", 0, false
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", 0, false
	}
	recvType := typeName(sig.Recv().Type())
	if recvType != "sync.Mutex" && recvType != "sync.RWMutex" {
		return "", "", 0, false
	}
	fun, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fun == nil {
		return "", "", 0, false
	}
	class = a.classOf(fun.X)
	return class, types.ExprString(fun.X), op, true
}

// classOf names the lock class of the mutex-valued expression x: the
// named type and field owning the mutex, a package-level variable, or
// a local variable.
func (a *lockAnalysis) classOf(x ast.Expr) string {
	pkg := a.pass.Pkg
	x = ast.Unparen(x)

	// If x is not itself of mutex type, the method was promoted from an
	// embedded mutex: name the embedding type's mutex field.
	t := pkg.Info.TypeOf(x)
	if t != nil {
		base := t
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		if named, ok := base.(*types.Named); ok {
			if st, ok := named.Underlying().(*types.Struct); ok {
				under := typeName(named)
				if under != "sync.Mutex" && under != "sync.RWMutex" {
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if f.Embedded() {
							if n := typeName(f.Type()); n == "sync.Mutex" || n == "sync.RWMutex" {
								return typeName(named) + "." + f.Name()
							}
						}
					}
					return typeName(named) + ".(embedded mutex)"
				}
			}
		}
	}

	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			owner := sel.Recv()
			if p, ok := owner.(*types.Pointer); ok {
				owner = p.Elem()
			}
			return typeName(owner) + "." + x.Sel.Name
		}
		// Package-qualified variable (pkg.Mu).
		if obj := pkg.Info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(x); obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return "local " + obj.Name()
		}
	}
	return types.ExprString(x)
}

// addEdge records a lock-order edge, keeping the first local position.
func (a *lockAnalysis) addEdge(from, to string, pos token.Pos) {
	if from == to {
		return
	}
	m := a.edges[from]
	if m == nil {
		m = map[string]token.Pos{}
		a.edges[from] = m
	}
	if old, ok := m[to]; !ok || (old == token.NoPos && pos != token.NoPos) {
		m[to] = pos
	}
}

// reportCycles finds strongly connected components of the order graph
// and reports every locally-witnessed edge inside one.
func (a *lockAnalysis) reportCycles() {
	// Deterministic node order.
	nodes := map[string]bool{}
	for from, tos := range a.edges {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	// Tarjan SCC, iteratively indexed by the sorted order.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(a.edges[v]))
		for to := range a.edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	// Component sizes: an SCC of size >= 2 contains a cycle.
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	for _, from := range order {
		tos := make([]string, 0, len(a.edges[from]))
		for to := range a.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			pos := a.edges[from][to]
			if pos == token.NoPos {
				continue // dependency-fact edge; reported where witnessed
			}
			if comp[from] == comp[to] && size[comp[from]] >= 2 {
				cycle := a.findCycle(from, to)
				a.pass.Report(pos, "lock-order cycle: %s (edge %s -> %s acquired here); impose one global order or release before acquiring", cycle, from, to)
			}
		}
	}
}

// findCycle renders one concrete cycle through edge from->to via DFS
// back from to to from.
func (a *lockAnalysis) findCycle(from, to string) string {
	seen := map[string]bool{to: true}
	var path []string
	var dfs func(v string) bool
	dfs = func(v string) bool {
		if v == from {
			return true
		}
		tos := make([]string, 0, len(a.edges[v]))
		for w := range a.edges[v] {
			tos = append(tos, w)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if seen[w] {
				continue
			}
			seen[w] = true
			path = append(path, w)
			if dfs(w) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !dfs(to) {
		return fmt.Sprintf("%s -> %s -> %s", from, to, from)
	}
	parts := append([]string{from, to}, path...)
	parts = append(parts, from)
	return strings.Join(parts, " -> ")
}

// blockingCallKind classifies well-known blocking stdlib calls.
func blockingCallKind(callee *types.Func) string {
	if callee.Pkg() == nil {
		return ""
	}
	path := callee.Pkg().Path()
	name := callee.Name()
	recv := ""
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = typeName(sig.Recv().Type())
	}
	switch path {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		// Cond.Wait is excluded: it atomically releases its locker for
		// the duration of the wait, so "Wait while holding" is exactly
		// its documented contract, not a pinned lock.
		if recv == "sync.WaitGroup" && name == "Wait" {
			return "sync wait"
		}
	case "net/http":
		switch {
		case recv == "net/http.Client" && (name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
			return "net/http round trip"
		case recv == "" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
			return "net/http round trip"
		case recv == "net/http.Server" && (name == "ListenAndServe" || name == "Serve" || name == "Shutdown"):
			return "net/http serve/shutdown"
		}
	case "os":
		if recv == "os.File" {
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Seek", "Truncate", "ReadFrom":
				return "file I/O"
			}
			return ""
		}
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "MkdirTemp",
			"ReadDir", "Stat", "Lstat", "Truncate":
			return "file I/O"
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
			return "stream I/O"
		}
	case "bufio":
		if recv == "bufio.Writer" && name == "Flush" {
			return "stream I/O"
		}
	}
	return ""
}
