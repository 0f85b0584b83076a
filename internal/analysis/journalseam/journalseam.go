// Package journalseam enforces the write-ahead-log seam: every mutation
// of durable controller state must flow through core's applyLocked (the
// single apply path fed by stageLocked), so the journal observes one
// total order and crash replay reconstructs exactly the live state.
//
// Inside repro/internal/core it flags, outside applyLocked and the New*
// constructors:
//
//   - writes to Manager's journaled fields (led, jobs, version, nextID,
//     degraded, idem, counters) — assignments, ++/--, delete(), and the
//     idempotency table's one writing method, Bind; the repair timings
//     beside the counters (repairLatency) are telemetry, reset by a
//     restart, and anyone may write them;
//   - commit(m.led, ...)/rollback(m.led, ...) on the live ledger
//     (scratch clones and snapshots are fine);
//   - mutator method calls rooted at m.led (UseSlots, AddDet,
//     SetOffline, Faults().FailMachine, ...).
//
// Outside internal/core (and internal/topology itself) it flags any
// call of a mutating method on *core.Ledger or *topology.Faults: other
// packages must go through Manager's journaled API, never poke the
// ledger or fault overlay directly.
//
// The sharded control plane gets the same treatment at the router
// layer. Inside repro/internal/shard, the Router's recovered tables
// (jobPods, crossMut, idem) are rebuilt from the pod WALs plus the
// intent log on every reopen, so a write outside the functions that
// mirror journaled commits silently diverges the live maps from what
// recovery will reconstruct; such writes (idem.Bind included) are flagged
// outside the shard seam functions: admitted, released and faulted, each
// mirroring one settled commit, and rebuildTables.
//
// Cross-package seam entry points — Manager.CommitExternal and
// PlanHomog/PlanHetero (a commit and a plan that nothing holds together
// outside the strict router's opMu) and Manager.Replay (the raw record
// applier, called from wal's one replay loop and nowhere else) — are
// policed through the declarative restriction table
// in internal/analysis/callgraph (DefaultRestrictions): each entry
// names the function and the packages allowed to call it, and every
// call site anywhere else is a finding.
package journalseam

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the journalseam analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "journalseam",
	Doc:  "ledger and fault state may only change through core's applyLocked journal seam",
	Run:  run,
}

// CorePath and TopoPath locate the packages holding the seam and the
// fault overlay. Vars so the analyzer tests can run on fixture packages
// loaded under the same paths.
var (
	CorePath  = "repro/internal/core"
	TopoPath  = "repro/internal/topology"
	ShardPath = "repro/internal/shard"
)

// journaledFields are the Manager fields whose every change must be a
// journaled mutation.
var journaledFields = map[string]bool{
	"led": true, "jobs": true, "version": true, "nextID": true,
	"degraded": true, "idem": true, "counters": true,
}

// ledgerMutators are the *core.Ledger methods that change reservation or
// slot state.
var ledgerMutators = map[string]bool{
	"AddStochastic": true, "RemoveStochastic": true, "AddDet": true,
	"RemoveDet": true, "UseSlots": true, "ReleaseSlots": true,
	"SetOffline": true,
}

// faultMutators are the *topology.Faults methods that change the overlay.
var faultMutators = map[string]bool{
	"FailMachine": true, "RestoreMachine": true, "FailLink": true,
	"RestoreLink": true,
}

// seamFuncs are core functions allowed to touch journaled state
// directly: the apply path itself and constructors building a manager
// before it has a journal.
func seamFunc(name string) bool {
	return name == "applyLocked" ||
		strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// routerTables are the Router fields recovery rebuilds from the pod
// WALs plus the intent log; every live write must mirror a journaled
// commit or replay, which only the shard seam functions do.
var routerTables = map[string]bool{
	"jobPods": true, "crossMut": true, "idem": true,
}

// shardSeamFunc lists the Router methods allowed to write the recovered
// tables: the three that mirror a settled admission, release or fault —
// shared by the live paths of both modes, foldIntents and resolveInDoubt —
// and recovery's rebuildTables (plus constructors, as in core; Open is
// one, and initialises the maps).
func shardSeamFunc(name string) bool {
	switch name {
	case "admitted", "released", "faulted", "rebuildTables", "Open":
		return true
	}
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

func run(pass *analysis.Pass) error {
	switch pass.Pkg.Path() {
	case CorePath:
		runCore(pass)
	case TopoPath:
		// The overlay's own package implements the mutators.
	case ShardPath:
		runShard(pass)
	default:
		runConsumer(pass)
	}
	return nil
}

// --- inside internal/core ---

func runCore(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || seamFunc(fn.Name.Name) {
				continue
			}
			checkCoreFunc(pass, fn)
		}
	}
}

func checkCoreFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if field, ok := managerFieldWrite(pass, lhs); ok {
					pass.Reportf(lhs.Pos(), "write to Manager.%s outside applyLocked bypasses the journal seam", field)
				}
			}
		case *ast.IncDecStmt:
			if field, ok := managerFieldWrite(pass, v.X); ok {
				pass.Reportf(v.X.Pos(), "write to Manager.%s outside applyLocked bypasses the journal seam", field)
			}
		case *ast.CallExpr:
			checkCoreCall(pass, v)
		}
		return true
	})
}

func checkCoreCall(pass *analysis.Pass, call *ast.CallExpr) {
	// delete(m.jobs, ...), clear(m.idem), ...
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "delete", "clear":
			if len(call.Args) > 0 {
				if field, ok := managerFieldWrite(pass, call.Args[0]); ok {
					pass.Reportf(call.Pos(), "%s of Manager.%s outside applyLocked bypasses the journal seam", id.Name, field)
				}
			}
		case "commit", "rollback":
			if len(call.Args) > 0 && isLiveLedger(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "%s on the live ledger outside applyLocked bypasses the journal seam", id.Name)
			}
		}
		return
	}
	// Mutator methods rooted at m.led: m.led.UseSlots(...),
	// m.led.Faults().FailMachine(...) — and m.idem.Bind(...).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Bind" {
			if field, ok := managerFieldWrite(pass, sel.X); ok {
				pass.Reportf(call.Pos(), "Bind on Manager.%s outside applyLocked bypasses the journal seam", field)
			}
		}
		if !ledgerMutators[sel.Sel.Name] && !faultMutators[sel.Sel.Name] {
			return
		}
		if rootsAtLiveLedger(pass, sel.X) {
			pass.Reportf(call.Pos(), "%s on the live ledger outside applyLocked bypasses the journal seam", sel.Sel.Name)
		}
	}
}

// managerFieldWrite reports whether the expression writes (through) a
// journaled field of a core.Manager value, returning the field name.
func managerFieldWrite(pass *analysis.Pass, e ast.Expr) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			if isManager(pass.Info.TypeOf(v.X)) && journaledFields[v.Sel.Name] {
				return v.Sel.Name, true
			}
			e = v.X
		default:
			return "", false
		}
	}
}

// isLiveLedger reports whether the expression is the manager's live
// ledger field (m.led or a chain ending there), as opposed to a local
// clone or snapshot.
func isLiveLedger(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "led" && isManager(pass.Info.TypeOf(sel.X))
}

// rootsAtLiveLedger walks a receiver chain like m.led.Faults() down to
// its root and reports whether it passes through the live ledger field.
func rootsAtLiveLedger(pass *analysis.Pass, e ast.Expr) bool {
	for {
		switch v := unparen(e).(type) {
		case *ast.SelectorExpr:
			if isLiveLedger(pass, v) {
				return true
			}
			e = v.X
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			e = sel.X
		default:
			return false
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isManager reports whether t is core.Manager or a pointer to it.
func isManager(t types.Type) bool {
	return isNamed(t, CorePath, "Manager")
}

func isNamed(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// --- inside internal/shard ---

func runShard(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || shardSeamFunc(fn.Name.Name) {
				continue
			}
			checkShardFunc(pass, fn)
		}
	}
	// The ledger and fault overlay stay off-limits here too: the router
	// mutates pods only through their managers.
	runConsumer(pass)
}

func checkShardFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if field, ok := routerTableWrite(pass, lhs); ok {
					pass.Reportf(lhs.Pos(), "write to Router.%s outside the shard commit seam diverges the recovered tables", field)
				}
			}
		case *ast.IncDecStmt:
			if field, ok := routerTableWrite(pass, v.X); ok {
				pass.Reportf(v.X.Pos(), "write to Router.%s outside the shard commit seam diverges the recovered tables", field)
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(v.Args) > 0 {
				if field, ok := routerTableWrite(pass, v.Args[0]); ok {
					pass.Reportf(v.Pos(), "%s of Router.%s outside the shard commit seam diverges the recovered tables", id.Name, field)
				}
			}
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Bind" {
				if field, ok := routerTableWrite(pass, sel.X); ok {
					pass.Reportf(v.Pos(), "Bind on Router.%s outside the shard commit seam diverges the recovered tables", field)
				}
			}
		}
		return true
	})
}

// routerTableWrite reports whether the expression writes (through) a
// recovered table of a shard.Router value, returning the field name.
func routerTableWrite(pass *analysis.Pass, e ast.Expr) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			if isNamed(pass.Info.TypeOf(v.X), ShardPath, "Router") && routerTables[v.Sel.Name] {
				return v.Sel.Name, true
			}
			e = v.X
		default:
			return "", false
		}
	}
}

// --- outside internal/core ---

func runConsumer(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := pass.Info.TypeOf(sel.X)
			switch {
			case ledgerMutators[sel.Sel.Name] && isNamed(recv, CorePath, "Ledger"):
				pass.Reportf(call.Pos(), "direct Ledger.%s outside internal/core bypasses the journal seam; use the Manager API", sel.Sel.Name)
			case faultMutators[sel.Sel.Name] && isNamed(recv, TopoPath, "Faults"):
				pass.Reportf(call.Pos(), "direct Faults.%s outside internal/core bypasses the journal seam; use the Manager API", sel.Sel.Name)
			}
			return true
		})
	}
	// Cross-package seam entry points come from the declarative table:
	// the engine reports a call site for every entry whose AllowedFrom
	// list excludes this package.
	for _, v := range callgraph.CheckRestrictions(pass.Unit(), callgraph.DefaultRestrictions) {
		pass.Reportf(v.Pos, "%s", v.Message)
	}
}
