// Package floatcmp flags == and != between floating-point operands.
// Computed bandwidth values (Gaussian aggregation, DP accumulation)
// round differently depending on evaluation order, so exact equality is
// a latent heisenbug; comparisons must go through an epsilon helper
// such as stats.AlmostEqual.
//
// These comparisons stay legal without annotation:
//
//   - comparison against an exact constant zero (x == 0): zero is a
//     meaningful sentinel (unset demand, Sigma==0 meaning deterministic)
//     and is preserved exactly by the arithmetic that produces it;
//   - comparison against an infinity sentinel, a package-level variable
//     initialised to math.Inf(...) (the DP tables' infeasible marker):
//     infinities are exact and only ever assigned;
//   - comparisons inside an approved helper (AlmostEqual itself).
//
// Anything else needs //lint:ignore floatcmp <reason>.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the floatcmp analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "no == or != on floating point outside epsilon helpers; use stats.AlmostEqual",
	Run:  run,
}

// ApprovedFuncs are function names whose bodies may compare floats
// exactly — the epsilon helpers themselves.
var ApprovedFuncs = map[string]bool{
	"AlmostEqual": true,
}

func run(pass *analysis.Pass) error {
	sentinels := infSentinels(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || ApprovedFuncs[fn.Name.Name] {
				continue
			}
			checkFunc(pass, fn, sentinels)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, sentinels map[types.Object]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		if !isFloat(pass.Info.TypeOf(bin.X)) || !isFloat(pass.Info.TypeOf(bin.Y)) {
			return true
		}
		if isExact(pass, bin.X, sentinels) || isExact(pass, bin.Y, sentinels) {
			return true
		}
		pass.Reportf(bin.OpPos, "floating-point %s comparison; use stats.AlmostEqual or an explicit epsilon", bin.Op)
		return true
	})
}

// isExact reports whether the operand is an exactly-representable
// sentinel: a constant zero, or a package-level variable initialised to
// math.Inf(...).
func isExact(pass *analysis.Pass, e ast.Expr, sentinels map[types.Object]bool) bool {
	if isExactZero(pass, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		return sentinels[pass.Info.Uses[id]]
	}
	return false
}

// infSentinels collects package-level vars whose initialiser is
// math.Inf(...), like the DP tables' `var infeasible = math.Inf(1)`.
func infSentinels(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, val := range vs.Values {
					if isInfCall(pass, val) {
						if obj := pass.Info.Defs[vs.Names[i]]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
		}
	}
	return out
}

func isInfCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Inf" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "math"
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether the expression is a compile-time constant
// equal to exactly zero.
func isExactZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return constant.Sign(tv.Value) == 0
}
