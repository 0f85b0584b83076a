// Package snapshotro protects the read-only snapshot discipline. The
// manager lends readers a shared snapshot ledger for the length of one
// call (core's view(m, func(*Ledger) T) accessor; elsewhere a
// snapshot()/Snapshot() result); callers may read it freely but must
// Clone() before mutating, or every other reader sees the edit.
//
// Two rules:
//
//   - Clone completeness: a method named Clone returning its receiver
//     type must mention every field of the receiver struct. A field the
//     body never touches is almost always a forgotten copy — the class
//     of bug where Faults.Clone dropped the reachability cache and
//     every admission paid a full rebuild. Deliberate omissions are
//     declared with //lint:clone-skip <fields>: <reason>.
//
//   - Snapshot mutation: the ledger parameter of a function literal
//     handed to view, and a variable bound to the result of
//     snapshot()/Snapshot(), must not be written through (field or
//     element assignment) or passed to a mutator (UseSlots, SetOffline,
//     FailMachine, commit, ...). Take a Clone() first — led.Clone()
//     inside the view is the sanctioned scratch pattern. refreshFrom,
//     the in-place counterpart of Clone, is a mutator like the rest: the
//     accessor calls it on its own unpinned spare and nobody calls it on
//     a ledger they were lent (it is unexported, so only core could).
//
// The sharded router's recovered tables (Router.jobPods and idem in
// repro/internal/shard) get the snapshot treatment too: values read out
// of them — a binding whose Placement shares its backing array with the
// table — are live shared state, so a variable bound to a table read (or
// to the table itself) must not be written through or handed to a
// mutator; copy first, as IdemState.Allocation does.
package snapshotro

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the snapshotro analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotro",
	Doc:  "shared snapshots are read-only, and Clone methods must copy every field",
	Run:  run,
}

// SnapshotFuncs are the functions whose results are shared read-only
// state. cachedRecords is the read-only view of a DP table's per-vertex
// records (core's dpTable, which a plan-cache entry keeps between plans):
// selection and reconstruction read it, but every write must go through
// the compute kernels so a cached table always equals a cold recompute.
var SnapshotFuncs = map[string]bool{
	"snapshot": true, "Snapshot": true,
	"cachedRecords": true,
}

// ViewFuncs are the scoped accessors: they run the function literal they
// are handed on a shared snapshot, so that literal's parameter is
// snapshot-bound for its whole body.
var ViewFuncs = map[string]bool{"view": true}

// mutators are methods that change ledger, overlay, or slot state; a
// snapshot must never be their receiver or argument.
var mutators = map[string]bool{
	"AddStochastic": true, "RemoveStochastic": true, "AddDet": true,
	"RemoveDet": true, "UseSlots": true, "ReleaseSlots": true,
	"SetOffline": true, "FailMachine": true, "RestoreMachine": true,
	"FailLink": true, "RestoreLink": true, "refreshFrom": true,
}

// mutatorFuncs are free functions that mutate their first argument.
var mutatorFuncs = map[string]bool{
	"commit": true, "rollback": true,
}

// ShardPath locates the sharded router package. A var so the analyzer
// tests can run on fixture packages loaded under the same path.
var ShardPath = "repro/internal/shard"

// routerTables are the Router fields whose values are shared with the
// live tables: reading one hands out aliased state, never a copy.
var routerTables = map[string]bool{
	"jobPods": true, "idem": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "Clone" {
				checkCloneCompleteness(pass, fn)
			}
			checkSnapshotMutation(pass, fn)
		}
	}
	return nil
}

// --- rule 1: Clone completeness ---

func checkCloneCompleteness(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return
	}
	recvType := pass.Info.TypeOf(fn.Recv.List[0].Type)
	st, named := structOf(recvType)
	if st == nil || !returnsType(pass, fn, named) {
		return
	}

	mentioned := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			// r.field or dst.field, for any expression of the receiver
			// type: a read of the source or a write of the copy both
			// count as handling the field.
			if sameStruct(pass.Info.TypeOf(v.X), named) {
				mentioned[v.Sel.Name] = true
			}
		case *ast.CompositeLit:
			if !sameStruct(pass.Info.TypeOf(v), named) {
				return true
			}
			for i, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mentioned[id.Name] = true
					}
				} else if i < st.NumFields() {
					// positional literal covers fields in order
					mentioned[st.Field(i).Name()] = true
				}
			}
		}
		return true
	})

	start := fn.Pos()
	if fn.Doc != nil {
		start = fn.Doc.Pos()
	}
	startPos := pass.Fset.Position(start)
	endPos := pass.Fset.Position(fn.End())
	skips := pass.CloneSkips(startPos.Filename, startPos.Line, endPos.Line)

	for i := 0; i < st.NumFields(); i++ {
		name := st.Field(i).Name()
		if !mentioned[name] && !skips[name] {
			pass.Reportf(fn.Name.Pos(), "Clone of %s does not copy field %q; copy it or declare //lint:clone-skip %s: <reason>", named.Obj().Name(), name, name)
		}
	}
}

// structOf unwraps pointers and returns the struct underlying a named
// type, or nil.
func structOf(t types.Type) (*types.Struct, *types.Named) {
	if t == nil {
		return nil, nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return st, named
}

func sameStruct(t types.Type, named *types.Named) bool {
	_, n := structOf(t)
	return n != nil && n.Obj() == named.Obj()
}

// returnsType reports whether any of the function's results is the
// given named type (possibly behind a pointer).
func returnsType(pass *analysis.Pass, fn *ast.FuncDecl, named *types.Named) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, res := range fn.Type.Results.List {
		if sameStruct(pass.Info.TypeOf(res.Type), named) {
			return true
		}
	}
	return false
}

// --- rule 2: no writes through snapshot results ---

func checkSnapshotMutation(pass *analysis.Pass, fn *ast.FuncDecl) {
	snaps := snapshotVars(pass, fn)
	if len(snaps) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if obj := writeThrough(pass, lhs, snaps); obj != nil {
					pass.Reportf(lhs.Pos(), "write through shared snapshot %s; Clone() it before mutating", obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if obj := writeThrough(pass, v.X, snaps); obj != nil {
				pass.Reportf(v.X.Pos(), "write through shared snapshot %s; Clone() it before mutating", obj.Name())
			}
		case *ast.CallExpr:
			checkSnapshotCall(pass, v, snaps)
		}
		return true
	})
}

// snapshotVars collects variables initialised directly from a snapshot
// accessor (without an intervening Clone()), and the parameters of
// function literals passed to a view accessor.
func snapshotVars(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ViewFuncs[calleeName(call)] {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					for _, field := range lit.Type.Params.List {
						for _, name := range field.Names {
							out[pass.Info.Defs[name]] = true
						}
					}
				}
			}
			return true
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(assign.Rhs) == 1 && len(assign.Lhs) >= 1 {
			// snap := m.snapshot()
			// pods, ok := r.jobPods[id]   or   idem := r.idem
			if isSnapshotCall(assign.Rhs[0]) || isTableRead(pass, assign.Rhs[0]) {
				if obj := identObject(pass, assign.Lhs[0]); obj != nil {
					out[obj] = true
				}
			}
			return true
		}
		for i, rhs := range assign.Rhs {
			if i < len(assign.Lhs) && (isSnapshotCall(rhs) || isTableRead(pass, rhs)) {
				if obj := identObject(pass, assign.Lhs[i]); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isTableRead reports whether the expression reads a recovered router
// table (r.jobPods[id], r.idem[key], r.idem — with or without the
// index), whose value aliases the live table.
func isTableRead(pass *analysis.Pass, e ast.Expr) bool {
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = idx.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !routerTables[sel.Sel.Name] {
		return false
	}
	return isRouter(pass.Info.TypeOf(sel.X))
}

// isRouter reports whether t is the shard Router or a pointer to it.
func isRouter(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == ShardPath && obj.Name() == "Router"
}

func isSnapshotCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && SnapshotFuncs[calleeName(call)]
}

// calleeName returns the bare name of the function or method a call
// names, through an explicit instantiation (view[int](...)) if any.
func calleeName(call *ast.CallExpr) string {
	fun := call.Fun
	if idx, ok := fun.(*ast.IndexExpr); ok {
		fun = idx.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func checkSnapshotCall(pass *analysis.Pass, call *ast.CallExpr, snaps map[types.Object]bool) {
	// snap passed to commit/rollback
	if id, ok := call.Fun.(*ast.Ident); ok && mutatorFuncs[id.Name] {
		for _, arg := range call.Args {
			if obj := identObject(pass, arg); obj != nil && snaps[obj] {
				pass.Reportf(arg.Pos(), "shared snapshot %s passed to %s; Clone() it before mutating", obj.Name(), id.Name)
			}
		}
		return
	}
	// snap.UseSlots(...), snap.Faults().FailMachine(...)
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mutators[sel.Sel.Name] {
		return
	}
	if obj := rootObject(pass, sel.X); obj != nil && snaps[obj] {
		pass.Reportf(call.Pos(), "mutator %s called on shared snapshot %s; Clone() it before mutating", sel.Sel.Name, obj.Name())
	}
}

// writeThrough returns the snapshot variable when the lvalue writes
// through it (snap.f = v, snap.m[k] = v), but not when the variable
// itself is rebound (snap = other).
func writeThrough(pass *analysis.Pass, lhs ast.Expr, snaps map[types.Object]bool) types.Object {
	if _, ok := lhs.(*ast.Ident); ok {
		return nil // rebinding the variable is fine
	}
	obj := rootObject(pass, lhs)
	if obj != nil && snaps[obj] {
		return obj
	}
	return nil
}

// rootObject walks selector/index/call chains down to the root
// identifier and returns its object. Chains passing through Clone()
// are cut: the clone is private.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return identObject(pass, v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name == "Clone" {
				return nil
			}
			e = sel.X
		default:
			return nil
		}
	}
}

func identObject(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
