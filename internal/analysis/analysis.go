// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis: just enough framework to write project-specific
// analyzers over (ast.File, types.Package, types.Info) triples produced
// by internal/analysis/loader. It exists because this module is
// dependency-free; the API mirrors go/analysis closely enough that the
// analyzers could be ported to real vet plugins mechanically.
//
// One suppression directive serves every analyzer, and it needs a
// written justification:
//
//	//lint:ignore <analyzer[,analyzer...]> <reason>
//
// It suppresses findings from the named analyzers, and only those, on the
// directive's line and on the line below it (so it can ride above a
// statement). Pass.Reportf applies it; no analyzer looks for it itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/callgraph"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // short lower-case identifier, used in directives and output
	Doc  string // one-line description of the enforced invariant
	Run  func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Graph is the whole-program call graph, built once per svclint run
	// over every loaded package and shared by all passes. In the vet
	// unitchecker (one package per process) it covers only the current
	// package; analyzers that consult it degrade to intra-package
	// precision there. Nil when the driver predates the graph.
	Graph *callgraph.Graph

	directives []directive
	diags      []Diagnostic
}

// Unit returns this pass's package as a callgraph unit (for graph
// lookups keyed on the current package).
func (p *Pass) Unit() *callgraph.Unit {
	return &callgraph.Unit{Path: p.Pkg.Path(), Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
}

// NewPass assembles a pass and indexes the package's //lint: directives.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
	for _, f := range files {
		p.directives = append(p.directives, parseDirectives(fset, f)...)
	}
	return p
}

// Reportf records a finding unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignored(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the findings in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzers string // comma-separated analyzer names
	reason    string
	file      string
	line      int
	pos       token.Pos
}

var directiveRe = regexp.MustCompile(`^//lint:ignore\b\s*(.*)$`)

// parseDirectives extracts //lint:ignore directives with their positions.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := directiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			d := directive{file: pos.Filename, line: pos.Line, pos: c.Pos()}
			// The first token names the analyzers, the rest is the reason.
			rest := strings.TrimSpace(m[1])
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				d.analyzers, d.reason = rest[:i], strings.TrimSpace(rest[i+1:])
			} else {
				d.analyzers = rest
			}
			out = append(out, d)
		}
	}
	return out
}

// ignored reports whether an ignore directive for this analyzer covers
// the position (same line or the line directly above).
func (p *Pass) ignored(pos token.Position) bool {
	for _, d := range p.directives {
		if d.file != pos.Filename {
			continue
		}
		if d.line != pos.Line && d.line != pos.Line-1 {
			continue
		}
		for _, name := range strings.Split(d.analyzers, ",") {
			if strings.TrimSpace(name) == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// MalformedDirectives reports //lint:ignore directives missing their
// required justification or analyzer list, as findings attributed to the
// given analyzer. svclint runs it once per package so unexplained
// escape hatches fail the lint gate like any other finding.
func MalformedDirectives(p *Pass) {
	for _, d := range p.directives {
		if d.reason == "" {
			p.diags = append(p.diags, Diagnostic{
				Pos:      p.Fset.Position(d.pos),
				Message:  "//lint:ignore directive needs a justification",
				Analyzer: p.Analyzer.Name,
			})
		}
		if d.analyzers == "" {
			p.diags = append(p.diags, Diagnostic{
				Pos:      p.Fset.Position(d.pos),
				Message:  "//lint:ignore directive names no analyzer",
				Analyzer: p.Analyzer.Name,
			})
		}
	}
}
