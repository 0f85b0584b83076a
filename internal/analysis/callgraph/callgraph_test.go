package callgraph_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/callgraph"
)

var fixturePaths = []string{"repro/internal/core", "repro/internal/wal", "consumer"}

func loadUnits(t *testing.T) map[string]*callgraph.Unit {
	t.Helper()
	byPath := make(map[string]*callgraph.Unit)
	for _, u := range analysistest.Load(t, "testdata", fixturePaths...) {
		byPath[u.Path] = u
	}
	return byPath
}

// TestCrossPackageRestriction drives the declarative restriction table
// over a multi-package fixture: the declaring package and the
// allow-listed wal stand-in call the seam freely; the outside consumer's
// direct call is the violation (the interface call is not a direct one).
func TestCrossPackageRestriction(t *testing.T) {
	units := loadUnits(t)
	for _, p := range []string{"repro/internal/core", "repro/internal/wal"} {
		if vs := callgraph.CheckRestrictions(units[p], callgraph.DefaultRestrictions); len(vs) != 0 {
			t.Errorf("%s: unexpected violations %v", p, vs)
		}
	}
	vs := callgraph.CheckRestrictions(units["consumer"], callgraph.DefaultRestrictions)
	want := []string{
		"Replay outside internal/wal applies a raw journal record outside the one replay loop recovery and the standby share",
	}
	if len(vs) != len(want) {
		t.Fatalf("consumer violations = %d, want %d: %v", len(vs), len(want), vs)
	}
	for i, v := range vs {
		if v.Message != want[i] {
			t.Errorf("violation %d message = %q, want %q", i, v.Message, want[i])
		}
	}
}

// TestGraphEdges pins the engine's resolution rules on the fixture:
// static cross-package edges for direct calls, a dynamic edge for the
// interface call, and the intra-package seam call.
func TestGraphEdges(t *testing.T) {
	units := loadUnits(t)
	g := callgraph.Build([]*callgraph.Unit{
		units["repro/internal/core"], units["repro/internal/wal"], units["consumer"],
	})
	r := render(g)
	for _, want := range []string{
		"consumer.Fine\n  -> repro/internal/core.(*Manager).Allocate static",
		"consumer.Sneak\n  -> repro/internal/core.(*Manager).Replay static",
		"consumer.Indirect\n  -> repro/internal/core.(*Manager).Replay dynamic",
		"repro/internal/wal.Recover\n  -> repro/internal/core.(*Manager).Replay static",
		"repro/internal/core.(*Manager).Allocate\n  -> repro/internal/core.(*Manager).Replay static",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("graph rendering missing %q:\n%s", want, r)
		}
	}
}

// TestGraphDeterminism pins the build-order guarantee: two independent
// loads of the same fixture produce byte-identical graph renderings
// (node order, edge order, sites), the property the lockorder cycle
// anchor and all per-graph caches rely on.
func TestGraphDeterminism(t *testing.T) {
	renderOnce := func() string {
		var units []*callgraph.Unit
		byPath := loadUnits(t)
		for _, p := range fixturePaths {
			units = append(units, byPath[p])
		}
		return render(callgraph.Build(units))
	}
	a, b := renderOnce(), renderOnce()
	if a != b {
		t.Fatalf("two builds differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// render writes the graph in its deterministic node order, with every
// edge's kind and site line.
func render(g *callgraph.Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "%s\n", n)
		for _, e := range n.Out {
			kind := "static"
			if e.Dynamic {
				kind = "dynamic"
			}
			fmt.Fprintf(&sb, "  -> %s %s line=%d\n", e.Callee, kind, n.Unit.Fset.Position(e.Site).Line)
		}
	}
	return sb.String()
}
