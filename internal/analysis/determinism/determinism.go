// Package determinism flags nondeterminism sources in packages whose
// output feeds the journal, exported state, or placement decisions.
// Replay equivalence (the WAL reconstructs byte-identical state) and
// the deterministic-DP guarantee both die quietly when wall-clock
// reads, global RNG state, or map iteration order leak into those
// paths.
//
// Three rules, applied only to the packages in TargetPaths:
//
//   - no time.Now or time.Since: inject a clock (core's nowFunc seam)
//     so tests and replay control time;
//   - no package-level math/rand calls: global RNG state is shared and
//     unseeded; thread a seeded *rand.Rand instead;
//   - a range over a map that appends to a slice (or sends on a channel)
//     must be followed by a sort of that slice somewhere in the same
//     function, else iteration order — which Go randomises — reaches the
//     output.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "journal-feeding packages must not read wall clocks, global RNG, or unsorted map iteration order",
	Run:  run,
}

// TargetPaths are the packages held to the determinism rules. Var so
// the analyzer tests can aim it at fixture packages.
var TargetPaths = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/wal":      true,
	"repro/internal/topology": true,
	"repro/internal/stats":    true,
	"repro/internal/sim":      true,
	"repro/internal/scenario": true,
	"repro/internal/shard":    true,
}

func run(pass *analysis.Pass) error {
	if !TargetPaths[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkClockAndRand(pass, fn)
			checkMapOrder(pass, fn)
		}
	}
	return nil
}

// --- wall clock and global RNG ---

func checkClockAndRand(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "time":
			if callee.Name() == "Now" || callee.Name() == "Since" {
				pass.Reportf(call.Pos(), "time.%s in a journal-feeding package; inject a clock (core nowFunc seam) instead", callee.Name())
			}
		case "math/rand", "math/rand/v2":
			// Constructors (rand.New, rand.NewSource, ...) build a
			// private seeded generator — that is the fix, not the bug.
			if strings.HasPrefix(callee.Name(), "New") {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() == nil {
				pass.Reportf(call.Pos(), "package-level %s.%s uses shared global RNG state; thread a seeded *rand.Rand instead", callee.Pkg().Name(), callee.Name())
			}
		}
		return true
	})
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// or nil for builtins, conversions and indirect calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// --- map iteration order ---

func checkMapOrder(pass *analysis.Pass, fn *ast.FuncDecl) {
	sorted := sortedObjects(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.Info.TypeOf(rng.X); t == nil || !isMap(t) {
			return true
		}
		checkMapRangeBody(pass, rng, sorted)
		return true
	})
}

// checkMapRangeBody flags order-sensitive sinks inside the body of a
// range over a map.
func checkMapRangeBody(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "channel send inside map iteration publishes map order; collect and sort first")
		case *ast.AssignStmt:
			// x = append(x, ...) where x is never sorted in this
			// function.
			for i, rhs := range v.Rhs {
				if i >= len(v.Lhs) {
					break
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) {
					continue
				}
				obj := identObject(pass, v.Lhs[i])
				if obj == nil || sorted[obj] {
					continue
				}
				pass.Reportf(v.Pos(), "append to %s inside map iteration without a later sort leaks map order", obj.Name())
			}
		}
		return true
	})
}

// sortedObjects collects the objects passed to any sort-like call in the
// function: sort.Slice(x, ...), slices.Sort(x), a local sortJobs(x), …
// Name matching is by a case-insensitive "sort" substring so that
// project-local helpers count.
func sortedObjects(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			// Direct slice args and idents captured by a comparison
			// closure (sort.Slice(x, func(i, j int) bool {...})).
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// calleeName renders the full call path ("sort.Strings", "sortPairs")
// so both stdlib sort functions and project-local helpers match.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func identObject(pass *analysis.Pass, e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok {
		return pass.Info.ObjectOf(id)
	}
	return nil
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
