// Package durabilitycheck enforces ack-after-durable (docs/INVARIANTS.md
// I12): an HTTP handler that mutates allocation state may only write a
// 2xx status on paths where the mutation's journal commit-wait has
// already returned.
//
// Applied only to the packages in TargetPaths (the HTTP layer). A
// function is checked when it contains a mutator call — either a method
// whose name is in mutatorNames, or (with a whole-program graph) any
// callee that transitively reaches a wal commit-wait. The flow kit then
// tracks one bit, "committed", per path:
//
//   - a mutator call sets the bit (its error path is expected to return
//     before acking; the bit models the success path);
//   - branch joins AND the bit, so one uncommitted path through an if
//     chain poisons the join;
//   - an ack — WriteHeader or any write*-helper called with a constant
//     status in [200,300) — on a path without the bit is a finding.
//
// Read-only handlers (no mutator call anywhere in the body) are out of
// scope: acking a GET without journal traffic is fine.
//
// Escape hatch: //lint:ignore durabilitycheck <reason> on the flagged
// line or the line above.
package durabilitycheck

import (
	"go/ast"
	"go/constant"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/flow"
)

// Analyzer is the durabilitycheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "durabilitycheck",
	Doc:  "2xx acks in mutating handlers must be dominated by a journal commit-wait",
	Run:  run,
}

// TargetPaths are the packages whose handlers are held to
// ack-after-durable. Var so the analyzer tests can add fixture packages.
var TargetPaths = map[string]bool{
	"repro/internal/httpapi": true,
}

// mutatorNames are the Controller methods the HTTP layer calls whose
// success implies the mutation is journaled and the commit wait has
// returned. They are the unitchecker fallback, where the graph holds one
// package; with a whole-program graph any callee reaching a wal
// commit-wait counts too.
var mutatorNames = map[string]bool{
	"AllocateHomog":  true,
	"AllocateHetero": true,
	"Release":        true,
	"FailMachine":    true,
	"RestoreMachine": true,
	"FailLink":       true,
	"RestoreLink":    true,
	"RepairJob":      true,
	"RepairAll":      true,
}

// commitWait is the wal operation every durable record passes through
// (Journal.Commit is StageCommit plus the wait); reaching it transitively
// marks a callee as a mutator.
const commitWait = "StageCommit"

func run(pass *analysis.Pass) error {
	if !TargetPaths[pass.Pkg.Path()] {
		return nil
	}
	c := &checker{pass: pass, graph: pass.Graph}
	if c.graph == nil {
		c.graph = callgraph.Build([]*callgraph.Unit{pass.Unit()})
	}
	c.reachesCommit = make(map[*callgraph.Node]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !c.mutates(fn.Body) {
				continue // read-only handler: acks freely
			}
			c.walker().Walk(fn.Body, ackState{})
		}
	}
	return nil
}

// ackState is the single committed bit; the map form fits the flow
// kit's Clone/Join contract (Join by intersection = AND).
type ackState map[string]bool

func (s ackState) Clone() flow.State {
	c := make(ackState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s ackState) Join(o flow.State) flow.State {
	out := ackState{}
	for k := range s {
		if o.(ackState)[k] {
			out[k] = true
		}
	}
	return out
}

func (s ackState) committed() bool { return s["committed"] }

type checker struct {
	pass          *analysis.Pass
	graph         *callgraph.Graph
	reachesCommit map[*callgraph.Node]bool
}

func (c *checker) walker() *flow.Walker {
	w := &flow.Walker{}
	w.Hooks = flow.Hooks{
		Call: func(call *ast.CallExpr, s flow.State) flow.State {
			st := s.(ackState)
			// Check the ack against the state before this call mutates it:
			// writeJSON(w, 201, ...) after Allocate is fine, before is not.
			if code, ok := c.ackStatus(call); ok && code {
				if !st.committed() {
					c.pass.Reportf(call.Pos(), "2xx acknowledged without a preceding journal commit-wait on this path (ack-after-durable, INVARIANTS I12)")
				}
			}
			if c.namedDurable(call) {
				st["committed"] = true
			}
			return st
		},
		FuncLit: func(fl *ast.FuncLit) {
			if c.mutates(fl.Body) {
				c.walker().Walk(fl.Body, ackState{})
			}
		},
	}
	return w
}

// mutates reports whether the body contains any durable mutator call;
// only such functions are held to ack-after-durable.
func (c *checker) mutates(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.namedDurable(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// namedDurable recognises mutators by name or, with a graph, by
// transitive reachability of a wal commit-wait.
func (c *checker) namedDurable(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mutatorNames[sel.Sel.Name] {
		return true
	}
	for _, callee := range c.graph.CalleeOf(c.pass.Unit(), call) {
		if c.nodeReachesCommit(callee) {
			return true
		}
	}
	return false
}

// nodeReachesCommit memoises "this function transitively calls a wal
// commit-wait".
func (c *checker) nodeReachesCommit(n *callgraph.Node) bool {
	if v, ok := c.reachesCommit[n]; ok {
		return v
	}
	c.reachesCommit[n] = false // cut recursion on cycles
	v := c.graph.Reaches(n, -1, func(m *callgraph.Node) bool {
		return m.Obj.Name() == commitWait && m.Unit.Path == analysis.WALPath
	})
	c.reachesCommit[n] = v
	return v
}

// ackStatus reports whether the call writes a constant HTTP status —
// WriteHeader or a write*-prefixed helper — and whether it is 2xx.
func (c *checker) ackStatus(call *ast.CallExpr) (is2xx, ok bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false, false
	}
	if name != "WriteHeader" && !strings.HasPrefix(name, "write") {
		return false, false
	}
	for _, arg := range call.Args {
		tv, okArg := c.pass.Info.Types[arg]
		if !okArg || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		code, exact := constant.Int64Val(tv.Value)
		if !exact || code < 100 || code > 599 {
			continue
		}
		return code >= 200 && code < 300, true
	}
	return false, false
}
