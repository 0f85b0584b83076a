package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"repro/internal/analysis"
)

const directiveSrc = `package p

func a() {
	//lint:ignore errflow recovery replays the intent
	_ = 1
	//lint:ignore errflow
	_ = 2
	//lint:ignore
	_ = 3
	//lint:ignore determinism,errflow both hold here
	_ = 4
}
`

func pass(t *testing.T, name string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.NewPass(&analysis.Analyzer{Name: name, Doc: "test"}, fset, []*ast.File{f}, nil, nil)
}

// TestMalformedDirectives pins that an ignore directive without a written
// justification, or without an analyzer to name, fails the lint gate.
func TestMalformedDirectives(t *testing.T) {
	p := pass(t, "directives")
	analysis.MalformedDirectives(p)
	var got []string
	for _, d := range p.Diagnostics() {
		got = append(got, d.Pos.String()+": "+d.Message)
	}
	want := []string{
		"p.go:6:2: //lint:ignore directive needs a justification",
		"p.go:8:2: //lint:ignore directive needs a justification",
		"p.go:8:2: //lint:ignore directive names no analyzer",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// TestIgnoreNamesAnalyzer pins the one escape hatch: Reportf drops a
// finding only when a directive on its line or the line above names the
// reporting analyzer.
func TestIgnoreNamesAnalyzer(t *testing.T) {
	for _, tc := range []struct {
		analyzer string
		line     int
		ignored  bool
	}{
		{"errflow", 5, true},      // the directive one line up names it
		{"errflow", 4, true},      // and so does the one on the line itself
		{"errflow", 7, true},      // unjustified, but still an ignore (and a finding of its own)
		{"errflow", 9, false},     // the directive above names no analyzer
		{"errflow", 3, false},     // no directive on the line or above
		{"determinism", 5, false}, // a directive for another analyzer
		{"determinism", 11, true},
		{"errflow", 11, true},
		{"lockorder", 11, false},
	} {
		p := pass(t, tc.analyzer)
		p.Reportf(p.Files[0].Pos()+token.Pos(lineOffset(tc.line)), "finding")
		if got := len(p.Diagnostics()) == 0; got != tc.ignored {
			t.Errorf("%s at line %d: ignored = %v, want %v", tc.analyzer, tc.line, got, tc.ignored)
		}
	}
}

// lineOffset returns the byte offset of the first character of line n
// (1-based) in directiveSrc.
func lineOffset(n int) int {
	off := 0
	for i := 1; i < n; i++ {
		for directiveSrc[off] != '\n' {
			off++
		}
		off++
	}
	return off
}
