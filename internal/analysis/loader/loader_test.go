package loader

import (
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the module root from this source file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "../../.."))
}

func TestLoadCorePackage(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/topology", "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	core := byPath["repro/internal/core"]
	if core == nil {
		t.Fatalf("repro/internal/core not loaded; got %v", pkgs)
	}
	if core.Types.Scope().Lookup("Manager") == nil {
		t.Error("core.Manager not in package scope")
	}
	if len(core.Info.Uses) == 0 {
		t.Error("types.Info.Uses empty — analyzers need resolved identifiers")
	}
	// Imports resolved through export data must carry real member info.
	topo := byPath["repro/internal/topology"]
	if topo.Types.Scope().Lookup("Faults") == nil {
		t.Error("topology.Faults not in package scope")
	}
}

// TestLoadSharesTypeIdentityAcrossPackages: a module package imports the
// source-checked form of another — the *types.Package Load returned for
// it, not a second copy read from export data — whichever way the two
// import paths sort. The whole-program call graph resolves a
// cross-package call by the callee's object, so without this every such
// edge is silently missing.
func TestLoadSharesTypeIdentityAcrossPackages(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/daemon", "./internal/wal", "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, imp := range byPath["repro/internal/daemon"].Types.Imports() {
		if src := byPath[imp.Path()]; src != nil && src.Types != imp {
			t.Errorf("daemon imports a copy of %s, not the package Load checked from source", imp.Path())
		}
	}
}
