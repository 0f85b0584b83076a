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

// TestCrossPackageRestriction pins the graph facts journalseam's
// Replay-outside-internal/wal rule is checked against on the
// multi-package fixture: the only direct calls of the seam from outside
// the declaring package come from the wal stand-in and the consumer, so
// the consumer's is the one outside the allowed package; its interface
// call is a dynamic edge, not a direct one.
func TestCrossPackageRestriction(t *testing.T) {
	units := loadUnits(t)
	g := callgraph.Build([]*callgraph.Unit{
		units["repro/internal/core"], units["repro/internal/wal"], units["consumer"],
	})
	const seam = "repro/internal/core.(*Manager).Replay"
	var direct, outsideWAL, dynamic []string
	for _, n := range g.Nodes() {
		if n.Unit.Path == "repro/internal/core" {
			continue
		}
		for _, e := range n.Out {
			if e.Callee.String() != seam {
				continue
			}
			if e.Dynamic {
				dynamic = append(dynamic, n.String())
				continue
			}
			direct = append(direct, n.String())
			if n.Unit.Path != "repro/internal/wal" {
				outsideWAL = append(outsideWAL, n.String())
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"direct callers", direct, []string{"consumer.Sneak", "repro/internal/wal.Recover"}},
		{"direct callers outside wal", outsideWAL, []string{"consumer.Sneak"}},
		{"dynamic callers", dynamic, []string{"consumer.Indirect"}},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s of %s = %v, want %v", c.name, seam, c.got, c.want)
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
