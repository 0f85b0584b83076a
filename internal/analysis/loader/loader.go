// Package loader type-checks the module's packages for svclint without
// depending on golang.org/x/tools. It drives `go list -export -json
// -deps`, which compiles every dependency and records the path of its
// gc export data in the build cache; module-local packages are then
// parsed and type-checked from source with the standard library's gc
// importer resolving imports through that export map. The result is the
// same (Files, types.Package, types.Info) triple a go/analysis driver
// would hand each analyzer.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked source package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Exports maps import paths to gc export-data files, the lookup table
// behind every import the type checker resolves.
type Exports map[string]string

// List runs `go list -export -json -deps patterns...` in dir and returns
// the module's packages in the patterns' dependency closure (DepOnly
// marks the ones no pattern matched), in go list's order — every package
// after its dependencies — plus the export map covering the full closure.
func List(dir string, patterns ...string) ([]listPkg, Exports, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("loader: go list: %v\n%s", err, stderr.String())
	}
	exports := make(Exports)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("loader: decode go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			if p.Error != nil {
				return nil, nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
			}
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// Importer resolves imports first from source-checked packages (added
// with Add) and otherwise from gc export data. Sharing one Importer
// across packages keeps type identity consistent: every package sees the
// same *types.Package for a given import path.
type Importer struct {
	srcs map[string]*types.Package
	gc   types.ImporterFrom
}

// NewImporter returns an importer backed by the given export map.
func NewImporter(exports Exports) *Importer {
	fset := token.NewFileSet() // positions inside export data are unused
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	return &Importer{
		srcs: make(map[string]*types.Package),
		gc:   importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
	}
}

// Add registers a source-checked package, shadowing any export data for
// the same path (the analysistest harness loads fake stand-ins of real
// packages this way).
func (im *Importer) Add(pkg *types.Package) { im.srcs[pkg.Path()] = pkg }

// Import implements types.Importer.
func (im *Importer) Import(path string) (*types.Package, error) {
	if p, ok := im.srcs[path]; ok {
		return p, nil
	}
	return im.gc.ImportFrom(path, "", 0)
}

// newInfo returns a types.Info with every map analyzers consult filled in.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CheckFiles parses and type-checks the given files as one package with
// the given import path.
func CheckFiles(importPath string, fset *token.FileSet, filenames []string, im *Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %v", importPath, err)
	}
	dir := ""
	if len(filenames) > 0 {
		dir = filepath.Dir(filenames[0])
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Load type-checks every module package matched by the patterns, and the
// module packages they depend on, from source and dependencies first: an
// import of a module package resolves to its one source-checked form —
// so a call from one package into another names the callee's own object,
// and the whole-program call graph has the edge — and the standard
// library through export data. Only the matched packages are returned.
// Test files are excluded: svclint polices production code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, exports, err := List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	im := NewImporter(exports)
	fset := token.NewFileSet()
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		names := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			names[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := CheckFiles(t.ImportPath, fset, names, im)
		if err != nil {
			return nil, err
		}
		im.Add(pkg.Types)
		if !t.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}
