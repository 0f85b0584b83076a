// Package goroutinelife checks that every goroutine spawned in the
// control-plane packages has a reachable shutdown edge. A goroutine
// whose body — directly, or through up to three levels of callees on
// the whole-program graph — runs a `for {}` loop with no return, no
// break out of it, and no goto, can never be stopped: Close() returns
// while the loop keeps mutating state behind it (the group-commit
// drain, follower apply loops, and prober loops all exit via a done
// channel or a fenced-error return for exactly this reason).
//
// Applied only to the packages in TargetPaths. The loop scan ignores
// nested function literals (their lifetime is their own spawn site) and
// treats `for range ch` as terminating: closing the channel is the
// shutdown edge.
//
// Escape hatch: //lint:ignore goroutinelife <reason> on the go
// statement's line or the line above.
package goroutinelife

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the goroutinelife analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinelife",
	Doc:  "spawned goroutines must have a reachable shutdown edge",
	Run:  run,
}

// TargetPaths are the packages whose goroutines are audited. Var so the
// analyzer tests can add fixture packages.
var TargetPaths = map[string]bool{
	"repro/internal/core":    true,
	"repro/internal/wal":     true,
	"repro/internal/replica": true,
	"repro/internal/shard":   true,
	"repro/internal/httpapi": true,
	"repro/internal/daemon":  true,
}

// maxDepth bounds the callee search from the spawn site; deeper endless
// loops exist behind seams the spawner cannot be blamed for.
const maxDepth = 3

func run(pass *analysis.Pass) error {
	if !TargetPaths[pass.Pkg.Path()] {
		return nil
	}
	c := &checker{pass: pass, graph: pass.Graph, endless: make(map[*callgraph.Node]int)}
	if c.graph == nil {
		c.graph = callgraph.Build([]*callgraph.Unit{pass.Unit()})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.goStmt(g)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	graph   *callgraph.Graph
	endless map[*callgraph.Node]int // memo: 0 unknown, 1 yes, -1 no
}

func (c *checker) goStmt(g *ast.GoStmt) {
	p := c.pass.Fset.Position(g.Pos())
	if c.pass.DirectiveCovers("ignore", p.Filename, p.Line-1, p.Line) {
		return
	}
	if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if c.bodyEndless(fl.Body) || c.callsEndless(fl.Body) {
			c.pass.Reportf(g.Pos(), "goroutine has no shutdown edge: it reaches an endless for loop with no return, break, or goto; exit on a ctx/done signal instead")
		}
		return
	}
	for _, callee := range c.graph.CalleeOf(c.pass.Unit(), g.Call) {
		if c.nodeEndless(callee, maxDepth) {
			c.pass.Reportf(g.Pos(), "goroutine has no shutdown edge: %s reaches an endless for loop with no return, break, or goto; exit on a ctx/done signal instead", callee.Obj.Name())
			return
		}
	}
}

// callsEndless reports whether any call in the body (outside nested
// literals) reaches an endless loop within maxDepth.
func (c *checker) callsEndless(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, callee := range c.graph.CalleeOf(c.pass.Unit(), call) {
				if c.nodeEndless(callee, maxDepth-1) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// nodeEndless reports whether the function itself, or a callee within
// depth more hops, contains an endless loop.
func (c *checker) nodeEndless(n *callgraph.Node, depth int) bool {
	if v, ok := c.endless[n]; ok {
		return v == 1
	}
	if n.Decl.Body == nil {
		return false
	}
	c.endless[n] = -1 // cut recursion
	v := c.bodyEndless(n.Decl.Body)
	if !v && depth > 0 {
		v = c.graph.Reaches(n, depth, func(m *callgraph.Node) bool {
			return m != n && m.Decl.Body != nil && c.nodeEndlessSelf(m)
		})
	}
	if v {
		c.endless[n] = 1
	}
	return v
}

// nodeEndlessSelf memoises only the node's own body scan.
func (c *checker) nodeEndlessSelf(n *callgraph.Node) bool {
	if v, ok := c.endless[n]; ok && v != 0 {
		return v == 1
	}
	v := c.bodyEndless(n.Decl.Body)
	if v {
		c.endless[n] = 1
	}
	return v
}

// bodyEndless reports whether the body contains a `for` with no
// condition and no way out, ignoring nested function literals.
func (c *checker) bodyEndless(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil {
			if !exitsBlock(f.Body, true) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exitsBlock reports whether executing the block can leave the
// enclosing endless loop: a return, a goto, a labeled break, or — while
// an unlabeled break still binds to that loop — a plain break.
func exitsBlock(b *ast.BlockStmt, breakExits bool) bool {
	for _, st := range b.List {
		if exitsStmt(st, breakExits) {
			return true
		}
	}
	return false
}

func exitsStmt(s ast.Stmt, breakExits bool) bool {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if v.Tok == token.GOTO || v.Label != nil {
			return true
		}
		return v.Tok == token.BREAK && breakExits
	case *ast.BlockStmt:
		return exitsBlock(v, breakExits)
	case *ast.LabeledStmt:
		return exitsStmt(v.Stmt, breakExits)
	case *ast.IfStmt:
		if v.Init != nil && exitsStmt(v.Init, breakExits) {
			return true
		}
		if exitsBlock(v.Body, breakExits) {
			return true
		}
		return v.Else != nil && exitsStmt(v.Else, breakExits)
	case *ast.ForStmt:
		return exitsBlock(v.Body, false)
	case *ast.RangeStmt:
		return exitsBlock(v.Body, false)
	case *ast.SwitchStmt:
		return exitsClauses(v.Body, breakExits)
	case *ast.TypeSwitchStmt:
		return exitsClauses(v.Body, breakExits)
	case *ast.SelectStmt:
		return exitsClauses(v.Body, breakExits)
	}
	return false
}

// exitsClauses scans switch/select clause bodies; an unlabeled break
// inside them binds to the switch/select, not our loop.
func exitsClauses(b *ast.BlockStmt, _ bool) bool {
	for _, cl := range b.List {
		var body []ast.Stmt
		switch v := cl.(type) {
		case *ast.CaseClause:
			body = v.Body
		case *ast.CommClause:
			body = v.Body
		}
		for _, st := range body {
			if exitsStmt(st, false) {
				return true
			}
		}
	}
	return false
}
