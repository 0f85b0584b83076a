// Package errflow polices how errors from the durability layer travel.
// Two rules, applied only to the packages in TargetPaths:
//
//  1. The error from a must-check durability call — Commit, StageCommit
//     or (*os.File).Sync — may not be discarded: not
//     dropped as a bare statement, not assigned to the blank identifier,
//     not launched behind go/defer. A dropped commit error silently
//     converts a durable admission into an unlogged one (INVARIANTS
//     I1/I12).
//
//  2. fmt.Errorf may not flatten an error argument with a non-%w verb:
//     "%v"/"%s"/"%+v" stringify the chain, so errors.Is no longer sees
//     sentinels like wal.ErrFenced through the wrapper. Every error
//     argument must be consumed by %w.
//
// Escape hatch: //lint:ignore errflow <reason> on the flagged line or
// the line above.
package errflow

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "durability-layer errors must be checked and wrapped with %w",
	Run:  run,
}

// TargetPaths are the packages held to the error-flow rules. Var so the
// analyzer tests can add fixture packages.
var TargetPaths = map[string]bool{
	"repro/internal/core":    true,
	"repro/internal/wal":     true,
	"repro/internal/replica": true,
	"repro/internal/shard":   true,
	"repro/internal/httpapi": true,
}

// mustCheck are method names whose returned error feeds the durability
// contract regardless of receiver.
var mustCheck = map[string]bool{
	"Commit":      true,
	"StageCommit": true,
}

func run(pass *analysis.Pass) error {
	if !TargetPaths[pass.Pkg.Path()] {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ExprStmt:
				if call, ok := v.X.(*ast.CallExpr); ok {
					c.discard(call)
					return false // the call's arguments cannot be statements
				}
			case *ast.GoStmt:
				c.discard(v.Call)
			case *ast.DeferStmt:
				c.discard(v.Call)
			case *ast.AssignStmt:
				c.blankAssign(v)
			case *ast.CallExpr:
				c.errorfVerbs(v)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// mustCheckName returns the must-check callee name of the call, or "".
func (c *checker) mustCheckName(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if mustCheck[name] {
		return name
	}
	if name == "Sync" && isOSFile(c.pass.Info.TypeOf(sel.X)) {
		return name
	}
	return ""
}

// discard flags a must-check call whose results are thrown away
// entirely (bare statement, go, defer).
func (c *checker) discard(call *ast.CallExpr) {
	name := c.mustCheckName(call)
	if name == "" {
		return
	}
	c.pass.Reportf(call.Pos(), "error from %s discarded; a dropped durability error turns a durable admission into an unlogged one", name)
}

// blankAssign flags `_ = j.Commit(...)` and `x, _ := j.StageCommit(...)`
// where the blank identifier swallows the trailing error result.
func (c *checker) blankAssign(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := c.mustCheckName(call)
	if name == "" {
		return
	}
	// The error is the last result; flag only when its LHS slot is blank.
	last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	c.pass.Reportf(as.Pos(), "error from %s discarded; a dropped durability error turns a durable admission into an unlogged one", name)
}

// errorfVerbs checks a fmt.Errorf call: every error argument must be
// consumed by %w, never flattened through %v/%s/%+v.
func (c *checker) errorfVerbs(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := c.pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	for i, verb := range verbs(format) {
		argIdx := 1 + i
		if verb == 'w' || argIdx >= len(call.Args) {
			continue
		}
		arg := call.Args[argIdx]
		if !isErrorType(c.pass.Info.TypeOf(arg)) {
			continue
		}
		c.pass.Reportf(arg.Pos(), "error formatted with %%%c; use %%w so errors.Is still sees the wrapped chain", verb)
	}
}

// verbs returns the argument-consuming verbs of a format string in
// order, or nil when the string uses explicit argument indexes (rare;
// out of scope).
func verbs(format string) []byte {
	var out []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		if format[i] == '[' {
			return nil // explicit index: bail rather than miscount
		}
		// Skip flags, width, precision, including * (which consumes an
		// operand we conservatively count too).
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == '*' {
			out = append(out, '*')
			i++
		}
		if i < len(format) {
			out = append(out, format[i])
		}
	}
	return out
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface)
}

// isOSFile reports whether t is *os.File.
func isOSFile(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
