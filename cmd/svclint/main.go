// Command svclint runs the project's invariant analyzers over the
// module: the intra-package checks (lockcheck, journalseam,
// determinism, floatcmp, snapshotro) plus the whole-program v2 quartet
// (lockorder, durabilitycheck, errflow, goroutinelife), which share one
// call graph built over every loaded package.
//
// Standalone mode (the default, used by scripts/check.sh):
//
//	svclint [-format plain|github|json] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 1 when any finding (including a malformed //lint:ignore
// directive, the one escape hatch every analyzer honours) is reported.
//
// The binary also speaks enough of the go vet -vettool protocol
// (-V=full, -flags, unit .cfg files) to run as
//
//	go vet -vettool=$(command -v svclint) ./...
//
// so findings integrate with vet's per-package caching.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/all"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/loader"
)

func main() {
	// go vet probes its vettool before handing it work.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			fmt.Printf("svclint version 1 (suite: %s)\n", suiteNames())
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}
	os.Exit(standalone())
}

func suiteNames() string {
	names := make([]string, len(all.Analyzers))
	for i, a := range all.Analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// directivesAnalyzer attributes malformed-directive findings.
var directivesAnalyzer = &analysis.Analyzer{
	Name: "directives",
	Doc:  "every //lint:ignore escape hatch names an analyzer and gives a justification",
}

// unitOf adapts a loaded package to a callgraph unit.
func unitOf(pkg *loader.Package) *callgraph.Unit {
	return &callgraph.Unit{Path: pkg.ImportPath, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
}

// runSuite applies every analyzer plus the directive audit to one
// package and returns the findings in position order. graph is the
// whole-program call graph shared by every pass of the run.
func runSuite(pkg *loader.Package, graph *callgraph.Graph) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	for _, a := range all.Analyzers {
		pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		pass.Graph = graph
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
		out = append(out, pass.Diagnostics()...)
	}
	dp := analysis.NewPass(directivesAnalyzer, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	analysis.MalformedDirectives(dp)
	out = append(out, dp.Diagnostics()...)
	return out, nil
}

// --- standalone mode ---

func standalone() int {
	fs := flag.NewFlagSet("svclint", flag.ExitOnError)
	format := fs.String("format", "plain", "output format: plain, github, or json")
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "svclint:", err)
		return 2
	}
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svclint:", err)
		return 2
	}

	// Build the whole-program call graph once over every loaded package;
	// all analyzer passes share it.
	units := make([]*callgraph.Unit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = unitOf(pkg)
	}
	graph := callgraph.Build(units)

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := runSuite(pkg, graph)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svclint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	emit(diags, *format, dir)
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func emit(diags []analysis.Diagnostic, format, dir string) {
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
			Analyzer string `json:"analyzer"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{rel(dir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer})
		}
		enc.Encode(out)
	case "github":
		// GitHub workflow commands: rendered as inline check
		// annotations on the PR diff.
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=svclint/%s::%s\n",
				rel(dir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	default:
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s [%s]\n", rel(dir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
}

func rel(dir, file string) string {
	if r, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return file
}

// --- go vet unitchecker mode ---

// vetConfig is the subset of the unit .cfg file go vet writes for its
// vettool.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOutput                string
	VetxOnly                  bool
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svclint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "svclint: parse cfg:", err)
		return 2
	}
	// svclint passes no facts between packages, but vet insists the
	// output file exists before it will cache the unit.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "svclint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// svclint polices production code: the standalone loader never sees
	// test files, so the vet path must skip test compilation units too
	// (tests compare exact expected floats, read wall clocks, etc.).
	if strings.Contains(cfg.ImportPath, " [") || strings.HasSuffix(cfg.ImportPath, ".test") ||
		strings.HasSuffix(cfg.ImportPath, "_test") {
		return 0
	}
	goFiles := cfg.GoFiles[:0]
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	cfg.GoFiles = goFiles
	if len(cfg.GoFiles) == 0 {
		return 0
	}

	exports := make(loader.Exports, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for logical, actual := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[actual]; ok {
			exports[logical] = file
		}
	}
	pkg, err := loader.CheckFiles(cfg.ImportPath, token.NewFileSet(), cfg.GoFiles, loader.NewImporter(exports))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "svclint:", err)
		return 2
	}
	// One package per vet invocation: the graph covers only this unit, so
	// graph-dependent analyzers degrade to intra-package precision here.
	diags, err := runSuite(pkg, callgraph.Build([]*callgraph.Unit{unitOf(pkg)}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "svclint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2 // vet's "diagnostics reported" status
	}
	return 0
}
