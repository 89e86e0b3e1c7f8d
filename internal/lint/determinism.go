package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces that the simulation kernel cannot
// observe wall-clock time, unseeded randomness, map iteration order,
// or goroutine interleaving — the four ways a cycle-accurate model
// silently stops being repeatable. The golden suite catches a
// violation only after it has already cost a bisect; this pass catches
// it at vet time.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: `forbid wall-clock reads, global-source math/rand, order-dependent
map iteration, and goroutine spawns inside the simulation packages`,
	Scope: PathScope(
		"asdsim/internal/sim",
		"asdsim/internal/mc",
		"asdsim/internal/dram",
		"asdsim/internal/cache",
		"asdsim/internal/core",
		"asdsim/internal/slh",
		"asdsim/internal/stream",
		"asdsim/internal/prefetch",
		// The cluster coordinator must schedule identically however
		// requests interleave: no goroutines of its own, no wall-clock
		// reads outside the injected Options.Now, no map-order effects.
		"asdsim/internal/cluster",
		// Provenance records live on the simulation goroutine and their
		// content-derived IDs must replay identically; any clock read or
		// map iteration would leak into the stored lineage streams.
		"asdsim/internal/obs/prov",
		// Trace materialization must be a pure function of (profile,
		// seed, thread, budget) — the batched sweep's bit-identical
		// guarantee rests on it. The TraceCache's goroutine-free,
		// iteration-free design keeps it eligible.
		"asdsim/internal/workload",
	),
	Run: runDeterminism,
}

// wallClockFuncs are time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// seededRandCtors are the math/rand[/v2] functions that build an
// explicitly seeded generator and are therefore deterministic.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
}

func runDeterminism(pass *Pass) {
	pkg := pass.Pkg
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, trusted := pkg.funcTrustReason(fn, pass.Analyzer.Name); trusted {
				continue
			}
			runDeterminismFunc(pass, fn)
		}
	}
}

func runDeterminismFunc(pass *Pass, fn *ast.FuncDecl) {
	pkg := pass.Pkg
	sortedSlices := sortedSliceObjects(pkg, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "goroutine spawned in the simulation step path; the kernel must be single-threaded for repeatability")
		case *ast.CallExpr:
			callee := pkg.StaticCallee(n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch callee.Pkg().Path() {
			case "time":
				if wallClockFuncs[callee.Name()] && callee.Type().(*types.Signature).Recv() == nil {
					pass.Report(n.Pos(), "time.%s reads the wall clock; simulation state must depend only on simulated cycles", callee.Name())
				}
			case "math/rand", "math/rand/v2":
				if callee.Type().(*types.Signature).Recv() == nil && !seededRandCtors[callee.Name()] {
					pass.Report(n.Pos(), "%s.%s uses the global (unseeded) source; build a seeded *rand.Rand instead", callee.Pkg().Name(), callee.Name())
				}
			}
		case *ast.RangeStmt:
			t := pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectsInto, ok := mapRangeCollectTarget(pkg, n); ok && sortedSlices[collectsInto] {
				return true // canonical sorted-keys pattern
			}
			pass.Report(n.Pos(), "map iteration order can reach simulation state or output; collect keys into a slice and sort it, or tag //asd:allow determinism <reason>")
		}
		return true
	})
}

// mapRangeCollectTarget recognizes the first half of the sorted-keys
// idiom: a range body that only appends the key (and/or value) to a
// slice, returning the slice's object.
func mapRangeCollectTarget(pkg *Package, rng *ast.RangeStmt) (types.Object, bool) {
	if len(rng.Body.List) != 1 {
		return nil, false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if kind, _, _, builtin := pkg.ClassifyCall(call); kind != CalleeBuiltin || builtin != "append" {
		return nil, false
	}
	obj := pkg.Info.ObjectOf(lhs)
	if obj == nil {
		return nil, false
	}
	return obj, true
}

// sortingFuncs are the sort/slices functions that establish a
// deterministic order over a collected key slice.
var sortingFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedSliceObjects finds every slice object in fn that is passed to
// a recognized sorting function anywhere in the function.
func sortedSliceObjects(pkg *Package, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		callee := pkg.StaticCallee(call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		names := sortingFuncs[callee.Pkg().Path()]
		if names == nil || !names[callee.Name()] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pkg.Info.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}
