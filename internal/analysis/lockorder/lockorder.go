// Package lockorder builds the program's static lock-order graph and
// enforces the documented global acquisition order (docs/INVARIANTS.md
// I11). It is the first analyzer that needs the whole-program layer:
// the daemon holds daemon.Daemon.roleMu while it checkpoints managers,
// which take core.Manager.mu and from there — through the core.Journal
// interface — wal.Journal.writeMu and wal.Journal.mu, a chain no single
// package can see.
//
// Lock classes are (package, receiver type, field) triples like
// core.Manager.mu; mutexes that are not fields of a named struct carry
// no class and are ignored. The analyzer walks every function with the
// shared flow kit, tracking the held set per instance path (m.mu and
// pod.mu are different instances of the same class):
//
//   - a direct x.Lock() while another class is held records an edge
//     held-class -> new-class;
//   - a call while locks are held records an edge to every class the
//     callee may acquire transitively (a callgraph.Fixpoint fact, so
//     the WAL's group-commit closure is visible behind Journal.Commit);
//   - a go statement propagates the spawner's held set into the spawned
//     body: a spawner may block on the goroutines it launched (a
//     wg.Wait under a held lock), so their acquisitions order against
//     its held locks;
//   - same-class edges are skipped (two pods' Manager.mu alias one
//     class; instance identity is out of scope).
//
// Findings: an acquisition whose class ranks at-or-before a held class
// in Order violates the documented order; any cycle among the recorded
// edges (ranked or not) is reported once at its first edge site.
//
// Escape hatch: //lint:lockorder <reason> on the flagged line or the
// line above.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/flow"
	"repro/internal/analysis/lockcheck"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions must follow the documented global lock order and form no cycles",
	Run:  run,
}

// Order is the documented global acquisition order (INVARIANTS.md I11):
// a lock may only be acquired while every held ranked lock appears
// strictly earlier in this list. Classes not listed are cycle-checked
// only. Var so the analyzer tests can rank fixture classes.
var Order = []string{
	"repro/internal/daemon.Daemon.roleMu",
	"repro/internal/shard.Router.tabMu",
	"repro/internal/replica.Standby.syncMu",
	"repro/internal/replica.Standby.mu",
	"repro/internal/core.Manager.snapMu",
	"repro/internal/core.Manager.mu",
	"repro/internal/wal.Journal.writeMu",
	"repro/internal/wal.Journal.mu",
}

// finding is one diagnostic attributed to the unit it occurred in; the
// pass for that package reports it.
type finding struct {
	unitPath string
	pos      token.Pos
	msg      string
}

// edge is one observed may-acquire-while-held pair, keeping its first
// site for cycle reporting.
type edge struct {
	from, to string
	unitPath string
	pos      token.Pos
}

type result struct {
	findings []finding
}

// The whole-program analysis runs once per call graph; every package's
// pass then reports its own slice of the findings. svclint drives
// analyzers sequentially, so a plain cache is safe.
var (
	lastGraph *callgraph.Graph
	lastRes   *result
)

func run(pass *analysis.Pass) error {
	g := pass.Graph
	if g == nil {
		g = callgraph.Build([]*callgraph.Unit{pass.Unit()})
	}
	if g != lastGraph || lastRes == nil {
		lastGraph, lastRes = g, analyze(g)
	}
	for _, f := range lastRes.findings {
		if f.unitPath != pass.Pkg.Path() {
			continue
		}
		p := pass.Fset.Position(f.pos)
		if pass.DirectiveCovers("lockorder", p.Filename, p.Line-1, p.Line) {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

// analyze computes the lock-order graph and findings for the whole
// program.
func analyze(g *callgraph.Graph) *result {
	ranks := make(map[string]int, len(Order))
	for i, c := range Order {
		ranks[c] = i + 1
	}

	// Bottom-up fact: the set of lock classes a function may acquire,
	// itself or through any callee (closures fold into their builder).
	mayAcquire := callgraph.Fixpoint(g,
		func(n *callgraph.Node) map[string]bool {
			acq := make(map[string]bool)
			if n.Decl.Body == nil {
				return acq
			}
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if recv, kind := lockcheck.ClassifyMutexOp(n.Unit.Info, call); kind == lockcheck.OpAcquire {
						if c := classOf(n.Unit, recv); c != "" {
							acq[c] = true
						}
					}
				}
				return true
			})
			return acq
		},
		func(into, from map[string]bool) (map[string]bool, bool) {
			grew := false
			for k := range from {
				if !into[k] {
					into[k] = true
					grew = true
				}
			}
			return into, grew
		})

	c := &checker{g: g, ranks: ranks, mayAcquire: mayAcquire, edges: make(map[[2]string]edge)}
	for _, n := range g.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		c.node = n
		c.walker().Walk(n.Decl.Body, heldSet{})
	}
	c.cycles()
	sort.SliceStable(c.res.findings, func(i, j int) bool {
		a, b := c.res.findings[i], c.res.findings[j]
		if a.unitPath != b.unitPath {
			return a.unitPath < b.unitPath
		}
		return a.pos < b.pos
	})
	return &c.res
}

// heldSet maps held mutex instance paths (lockcheck.ExprPath) to their
// classes. Join keeps only instances held on every path with the same
// class.
type heldSet map[string]string

func (s heldSet) Clone() flow.State {
	c := make(heldSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s heldSet) Join(o flow.State) flow.State {
	out := heldSet{}
	for k, v := range s {
		if o.(heldSet)[k] == v {
			out[k] = v
		}
	}
	return out
}

type checker struct {
	g          *callgraph.Graph
	ranks      map[string]int
	mayAcquire map[*callgraph.Node]map[string]bool
	edges      map[[2]string]edge
	node       *callgraph.Node
	res        result
	reported   map[string]bool
}

func (c *checker) walker() *flow.Walker {
	w := &flow.Walker{}
	w.Hooks = flow.Hooks{
		Call: func(call *ast.CallExpr, s flow.State) flow.State {
			held := s.(heldSet)
			c.call(call, held)
			return held
		},
		Defer: func(call *ast.CallExpr, s flow.State) flow.State {
			// defer x.Unlock() keeps x held to the end of the walk, like
			// lockcheck; any other deferred call is treated as running
			// under the current held set (conservative: it runs at return
			// with at most these locks still held).
			if _, kind := lockcheck.ClassifyMutexOp(c.node.Unit.Info, call); kind != lockcheck.OpRelease {
				c.call(call, s.(heldSet))
				w.FuncLits(call)
			}
			return s
		},
		Go: func(call *ast.CallExpr, s flow.State) flow.State {
			// The spawner's held set flows into the spawned body: a
			// spawner that blocks on its goroutines while holding a lock
			// orders their acquisitions against that lock.
			held := s.(heldSet)
			if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				c.walker().Walk(fl.Body, held.Clone())
			} else {
				c.call(call, held)
			}
			return s
		},
		FuncLit: func(fl *ast.FuncLit) {
			// A closure not spawned by go runs on an unknown schedule;
			// its internal order is checked from an empty held set.
			c.walker().Walk(fl.Body, heldSet{})
		},
	}
	return w
}

// call processes one call site under the held set: mutex ops update the
// set, anything else contributes transitive edges for every class the
// callee may acquire.
func (c *checker) call(call *ast.CallExpr, held heldSet) {
	info := c.node.Unit.Info
	if recv, kind := lockcheck.ClassifyMutexOp(info, call); kind != lockcheck.OpNone {
		path := lockcheck.ExprPath(recv)
		switch kind {
		case lockcheck.OpAcquire:
			class := classOf(c.node.Unit, recv)
			if class != "" {
				for _, hc := range heldClasses(held) {
					if hc != class {
						c.edge(hc, class, call.Pos(),
							fmt.Sprintf("acquires %s while holding %s", short(class), short(hc)))
					}
				}
			}
			held[path] = class
		case lockcheck.OpRelease:
			delete(held, path)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	for _, callee := range c.g.CalleeOf(c.node.Unit, call) {
		acq := c.mayAcquire[callee]
		if len(acq) == 0 {
			continue
		}
		for _, class := range sortedKeys(acq) {
			for _, hc := range heldClasses(held) {
				if hc != class {
					c.edge(hc, class, call.Pos(),
						fmt.Sprintf("call to %s may acquire %s while holding %s", callee.Obj.Name(), short(class), short(hc)))
				}
			}
		}
	}
}

// edge records a held->acquired pair and reports a rank violation when
// both classes are ranked and the documented order is broken.
func (c *checker) edge(from, to string, pos token.Pos, what string) {
	key := [2]string{from, to}
	if _, ok := c.edges[key]; !ok {
		c.edges[key] = edge{from: from, to: to, unitPath: c.node.Unit.Path, pos: pos}
	}
	rf, rt := c.ranks[from], c.ranks[to]
	if rf == 0 || rt == 0 || rf < rt {
		return
	}
	c.report(pos, fmt.Sprintf("%s, violating the documented lock order (%s before %s)", what, short(to), short(from)))
}

func (c *checker) report(pos token.Pos, msg string) {
	key := fmt.Sprintf("%s|%d|%s", c.node.Unit.Path, pos, msg)
	if c.reported == nil {
		c.reported = make(map[string]bool)
	}
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.res.findings = append(c.res.findings, finding{unitPath: c.node.Unit.Path, pos: pos, msg: msg})
}

// cycles finds strongly connected components in the recorded lock-order
// graph and reports each once, at the earliest edge site inside it.
func (c *checker) cycles() {
	adj := make(map[string][]string)
	for _, e := range c.edges {
		// Pairs where both classes are ranked are fully policed by the
		// documented order: any cycle through them contains an inversion
		// that was already reported as a rank violation. Keeping them here
		// would report the same inversion twice.
		if c.ranks[e.from] != 0 && c.ranks[e.to] != 0 {
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	classes := make([]string, 0, len(adj))
	for k := range adj {
		classes = append(classes, k)
	}
	sort.Strings(classes)

	// Tarjan's SCC, iterative over the deterministic class order.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range classes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		in := make(map[string]bool, len(scc))
		for _, v := range scc {
			in[v] = true
		}
		// Earliest edge inside the component anchors the report.
		var best *edge
		for _, e := range c.edges {
			if !in[e.from] || !in[e.to] {
				continue
			}
			if best == nil || e.unitPath < best.unitPath ||
				(e.unitPath == best.unitPath && e.pos < best.pos) {
				ec := e
				best = &ec
			}
		}
		if best == nil {
			continue
		}
		sort.Strings(scc)
		names := make([]string, len(scc))
		for i, v := range scc {
			names[i] = short(v)
		}
		c.res.findings = append(c.res.findings, finding{
			unitPath: best.unitPath,
			pos:      best.pos,
			msg:      fmt.Sprintf("lock-order cycle among %s", strings.Join(names, ", ")),
		})
	}
}

// classOf renders a mutex receiver like m.mu as its lock class
// "<pkg>.<Type>.<field>", or "" when the mutex is not a field of a
// named type.
func classOf(u *callgraph.Unit, recv ast.Expr) string {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := u.Info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + sel.Sel.Name
}

func heldClasses(held heldSet) []string {
	seen := make(map[string]bool, len(held))
	var out []string
	for _, c := range held {
		if c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// short trims the module prefix from a class name for diagnostics:
// repro/internal/core.Manager.mu -> core.Manager.mu.
func short(class string) string {
	const mod = "repro/internal/"
	if strings.HasPrefix(class, mod) {
		return class[len(mod):]
	}
	return class
}
