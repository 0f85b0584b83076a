// Package lockcheck enforces the repo's locking convention: a function
// whose name ends in "Locked" may only be called while the mutex of the
// callee's receiver is held.
//
// The check drives the shared flow kit (internal/analysis/flow, whose
// walker was extracted from this analyzer) with a lock-set state:
// x.Lock()/x.RLock() adds x, x.Unlock()/x.RUnlock() removes it, and
// defer x.Unlock() leaves it held for the rest of the function.
// Branches fork the state and re-join on the intersection of the paths
// that fall through, so a branch that unlocks and returns does not
// clear the state for the code after it. Calling m.fooLocked(...)
// requires some mutex rooted at m (m.mu, m.tabMu, ...) to be held.
// Functions themselves named *Locked inherit the contract from their
// callers and are exempt inside; a closure starts with no lock held.
//
// Escape hatch: //lint:ignore lockcheck <reason> on the flagged line or
// the line above.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "calls to *Locked functions must hold the receiver's mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue // the name states the contract; callers are checked
			}
			c := &checker{pass: pass}
			c.walker().Walk(fn.Body, lockSet{})
		}
	}
	return nil
}

// lockSet is the set of mutex expressions (rendered as source paths)
// held at a program point.
type lockSet map[string]bool

// Clone implements flow.State.
func (s lockSet) Clone() flow.State {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Join implements flow.State: branch-join by intersection, so only
// locks held on every falling-through path survive.
func (s lockSet) Join(o flow.State) flow.State {
	out := lockSet{}
	for k := range s {
		if o.(lockSet)[k] {
			out[k] = true
		}
	}
	return out
}

type checker struct {
	pass *analysis.Pass
}

// walker wires the lock-set transfer functions into the flow kit.
func (c *checker) walker() *flow.Walker {
	w := &flow.Walker{}
	w.Hooks = flow.Hooks{
		Call: func(call *ast.CallExpr, s flow.State) flow.State {
			held := s.(lockSet)
			c.call(call, held)
			return held
		},
		Defer: func(call *ast.CallExpr, s flow.State) flow.State {
			// defer x.Unlock() keeps x held to function exit; other
			// deferred calls (including closures) are not walked as part
			// of this flow.
			if _, kind := c.mutexOp(call); kind != OpRelease {
				w.FuncLits(call)
			}
			return s
		},
		// A closure runs on its own schedule, so it inherits no locks.
		FuncLit: func(fl *ast.FuncLit) { c.walker().Block(fl.Body, lockSet{}) },
	}
	return w
}

// mutexOp classifies a call as Lock/Unlock on a sync.Mutex or RWMutex,
// returning the rendered receiver path.
func (c *checker) mutexOp(call *ast.CallExpr) (string, MutexOpKind) {
	recv, op := ClassifyMutexOp(c.pass.Info, call)
	if op == OpNone {
		return "", OpNone
	}
	return ExprPath(recv), op
}

// MutexOpKind classifies what a call does to a sync.Mutex or RWMutex.
type MutexOpKind int

const (
	OpNone    MutexOpKind = iota // not a mutex operation
	OpAcquire                    // Lock or RLock
	OpRelease                    // Unlock or RUnlock
)

// ClassifyMutexOp reports whether the call is a Lock/RLock or
// Unlock/RUnlock on a sync.Mutex or RWMutex, returning the receiver
// expression. Shared with lockorder, which keys lock classes off the
// same classification.
func ClassifyMutexOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, kind MutexOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, OpNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = OpAcquire
	case "Unlock", "RUnlock":
		kind = OpRelease
	default:
		return nil, OpNone
	}
	t := info.TypeOf(sel.X)
	if t == nil || !IsMutexType(t) {
		return nil, OpNone
	}
	return sel.X, kind
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func IsMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// call updates the state for mutex operations and checks *Locked calls.
func (c *checker) call(call *ast.CallExpr, held lockSet) {
	if path, op := c.mutexOp(call); op != OpNone {
		switch op {
		case OpAcquire:
			held[path] = true
		case OpRelease:
			delete(held, path)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return
	}
	if base := ExprPath(sel.X); !satisfied(held, base) {
		c.pass.Reportf(call.Pos(), "call to %s without holding a %s.* mutex", sel.Sel.Name, base)
	}
}

// satisfied reports whether a held mutex guards the callee's receiver:
// any mutex rooted at the same base path (base "m" matches "m.mu",
// "m.tabMu", ...).
func satisfied(held lockSet, base string) bool {
	for path := range held {
		if strings.HasPrefix(path, base+".") || path == base {
			return true
		}
	}
	return false
}

// ExprPath renders a selector chain like m.led.Faults() as a stable
// string key; non-path expressions collapse to their last component.
// Shared with lockorder, which keys held-lock instances the same way.
func ExprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return ExprPath(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return ExprPath(v.Fun) + "()"
	case *ast.ParenExpr:
		return ExprPath(v.X)
	case *ast.StarExpr:
		return ExprPath(v.X)
	case *ast.IndexExpr:
		return ExprPath(v.X) + "[]"
	}
	return "?"
}
