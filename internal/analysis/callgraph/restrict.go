// Cross-package call restrictions: the declarative generalization of
// journalseam's original hand-coded "CommitExternal may only be called
// from internal/shard" rule. A Restriction names one method (or
// package-level function) and the packages allowed to call it; every
// call site anywhere else is a violation. The check needs only the
// calling package's type information, so it runs identically in the
// whole-program driver and the per-package vet unitchecker.

package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Restriction declares that one function is callable only from the
// listed packages (the declaring package is always allowed: a method
// may call itself and its siblings).
type Restriction struct {
	// Pkg and Recv identify the callee's declaring package and receiver
	// type (Recv empty for package-level functions); Method is the bare
	// name.
	Pkg    string
	Recv   string
	Method string
	// AllowedFrom are the import paths permitted to call it.
	AllowedFrom []string
	// Reason finishes the diagnostic: "<Method> outside <allowed>
	// <Reason>".
	Reason string
}

// DefaultRestrictions is the repo's cross-package restriction table.
// journalseam applies it to every package it visits; the fixture that
// pinned the original hand-coded rule now pins this entry.
var DefaultRestrictions = []Restriction{
	{
		Pkg: "repro/internal/core", Recv: "Manager", Method: "CommitExternal",
		AllowedFrom: []string{"repro/internal/shard"},
		Reason:      "commits an unplanned mutation; use the Manager admission API",
	},
	{
		Pkg: "repro/internal/core", Recv: "Manager", Method: "PlanHomog",
		AllowedFrom: []string{"repro/internal/shard"},
		Reason:      "plans a commit that does not re-check Eq. 4; use the Manager admission API",
	},
	{
		Pkg: "repro/internal/core", Recv: "Manager", Method: "PlanHetero",
		AllowedFrom: []string{"repro/internal/shard"},
		Reason:      "plans a commit that does not re-check Eq. 4; use the Manager admission API",
	},
	{
		Pkg: "repro/internal/core", Recv: "Manager", Method: "Replay",
		AllowedFrom: []string{"repro/internal/wal"},
		Reason:      "applies a raw journal record outside the one replay loop recovery and the standby share",
	},
}

// Violation is one restricted call from a disallowed package.
type Violation struct {
	Pos     token.Pos
	Message string
}

// allows reports whether the calling package may call the restricted
// function.
func (r Restriction) allows(caller string) bool {
	if caller == r.Pkg {
		return true
	}
	for _, p := range r.AllowedFrom {
		if caller == p {
			return true
		}
	}
	return false
}

// matches reports whether the called function is the restricted one.
func (r Restriction) matches(callee *types.Func) bool {
	if callee.Name() != r.Method || callee.Pkg() == nil || callee.Pkg().Path() != r.Pkg {
		return false
	}
	recv := callee.Type().(*types.Signature).Recv()
	if r.Recv == "" {
		return recv == nil
	}
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == r.Recv
}

// CheckRestrictions scans one unit for calls that violate the table,
// in source order.
func CheckRestrictions(u *Unit, table []Restriction) []Violation {
	var out []Violation
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *types.Func
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callee, _ = u.Info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				callee, _ = u.Info.Uses[fun.Sel].(*types.Func)
			}
			if callee == nil {
				return true
			}
			for _, r := range table {
				if r.matches(callee) && !r.allows(u.Path) {
					out = append(out, Violation{
						Pos: call.Pos(),
						Message: fmt.Sprintf("%s outside %s %s",
							r.Method, allowedLabel(r), r.Reason),
					})
				}
			}
			return true
		})
	}
	return out
}

// allowedLabel renders the allowed-package list for the diagnostic,
// shortened to the conventional internal/<name> form when possible.
func allowedLabel(r Restriction) string {
	if len(r.AllowedFrom) == 1 {
		return shorten(r.AllowedFrom[0])
	}
	s := ""
	for i, p := range r.AllowedFrom {
		if i > 0 {
			s += ","
		}
		s += shorten(p)
	}
	return s
}

func shorten(path string) string {
	const mod = "repro/"
	if len(path) > len(mod) && path[:len(mod)] == mod {
		return path[len(mod):]
	}
	return path
}
