package main

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/loader"
)

// mapWalk leaks map order into a slice: determinism's map-order rule in
// any package that rule covers.
const mapWalk = `
func censusMapOrder(m map[int]int) (out []int) {
	for k := range m {
		out = append(out, k) // determinism
	}
	return out
}
`

// censusCases are svclint's mutation census, one case per package: a file
// added to the real package (and, where a rule needs it, one edit of a
// real file) that breaks every rule and table row svclint holds that
// package to. Each case lists the findings it must draw, as
// "analyzer: message" regexps, in whole-program mode and in go vet's
// one-package mode. A file that names production code no longer there
// fails to type-check: the row it exercises guards nothing, and goes.
// Exemptions (applyLocked, the New* constructors, rand.New, a later sort,
// the shard seam functions, ...) are not cases: removing one makes the
// svclint run over the unmodified module fail.
var censusCases = []struct {
	name  string
	pkg   string
	src   string      // the added file, after its package clause
	edit  [][3]string // {file in pkg, old, new}: one replacement each
	also  []string    // packages whose passes must also run (their findings count)
	want  []string    // whole-program findings
	vetNo []string    // whole-program findings go vet's one-package graph cannot see
}{
	{
		name: "core",
		pkg:  "repro/internal/core",
		src: `import (
	"fmt"
	"time"

	"repro/internal/stats"
)

func (m *Manager) censusUnlocked(id JobID) {
	_, _ = m.commitStagedLocked(Mutation{Op: OpRelease, Job: id})
}

func (m *Manager) censusSeam() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.led = m.led.Clone()
	m.jobs[0] = nil
	clear(m.jobs)
	m.version++
	m.nextID = 0
	delete(m.degraded, 0)
	m.idem.Bind(Mutation{})
	m.counters.NoopRepairs++
	commit(m.led, &Placement{}, nil)
	rollback(m.led, &Placement{}, nil)
	m.led.AddStochastic(0, stats.Normal{})
	m.led.RemoveStochastic(0, stats.Normal{})
	m.led.AddDet(0, 0)
	m.led.RemoveDet(0, 0)
	m.led.UseSlots(0, 0)
	m.led.ReleaseSlots(0, 0)
	m.led.SetOffline(0, false)
	m.led.Faults().FailMachine(0)
	m.led.Faults().RestoreMachine(0)
	m.led.Faults().FailLink(0)
	m.led.Faults().RestoreLink(0)
}

func (m *Manager) censusView() bool {
	return view(m, func(led *Ledger) bool {
		led.eps = 0
		led.AddStochastic(0, stats.Normal{})
		led.RemoveStochastic(0, stats.Normal{})
		led.AddDet(0, 0)
		led.RemoveDet(0, 0)
		led.UseSlots(0, 0)
		led.ReleaseSlots(0, 0)
		led.SetOffline(0, false)
		led.Faults().FailMachine(0)
		led.Faults().RestoreMachine(0)
		led.Faults().FailLink(0)
		led.Faults().RestoreLink(0)
		commit(led, &Placement{}, nil)
		rollback(led, &Placement{}, nil)
		return true
	})
}

func (t *dpTable) censusRecords(v int) {
	recs := t.cachedRecords()
	recs[0].cap = 0
	rec := &t.cachedRecords()[v]
	rec.cap = 0
}

func (m *Manager) censusCommit(mut Mutation) error {
	m.journal.Commit(mut)
	go m.journal.Commit(mut)
	err := m.journal.Commit(mut)
	return fmt.Errorf("core: %v", err)
}

func censusClock() time.Duration {
	_ = time.Now()
	return time.Since(time.Time{})
}

func censusEqual(a, b float64) bool { return a == b }
` + mapWalk,
		want: []string{
			`lockcheck: call to commitStagedLocked without holding a m\.\* mutex`,
			`journalseam: write to Manager\.led outside applyLocked`,
			`journalseam: write to Manager\.jobs outside applyLocked`,
			`journalseam: clear of Manager\.jobs`,
			`journalseam: write to Manager\.version`,
			`journalseam: write to Manager\.nextID`,
			`journalseam: delete of Manager\.degraded`,
			`journalseam: Bind on Manager\.idem`,
			`journalseam: write to Manager\.counters`,
			`journalseam: commit on the live ledger`,
			`journalseam: rollback on the live ledger`,
			`journalseam: AddStochastic on the live ledger`,
			`journalseam: RemoveStochastic on the live ledger`,
			`journalseam: AddDet on the live ledger`,
			`journalseam: RemoveDet on the live ledger`,
			`journalseam: UseSlots on the live ledger`,
			`journalseam: ReleaseSlots on the live ledger`,
			`journalseam: SetOffline on the live ledger`,
			`journalseam: FailMachine on the live ledger`,
			`journalseam: RestoreMachine on the live ledger`,
			`journalseam: FailLink on the live ledger`,
			`journalseam: RestoreLink on the live ledger`,
			`snapshotro: write through shared snapshot led`,
			`snapshotro: mutator AddStochastic called on shared snapshot led`,
			`snapshotro: mutator RemoveStochastic called on shared snapshot led`,
			`snapshotro: mutator AddDet called on shared snapshot led`,
			`snapshotro: mutator RemoveDet called on shared snapshot led`,
			`snapshotro: mutator UseSlots called on shared snapshot led`,
			`snapshotro: mutator ReleaseSlots called on shared snapshot led`,
			`snapshotro: mutator SetOffline called on shared snapshot led`,
			`snapshotro: mutator FailMachine called on shared snapshot led`,
			`snapshotro: mutator RestoreMachine called on shared snapshot led`,
			`snapshotro: mutator FailLink called on shared snapshot led`,
			`snapshotro: mutator RestoreLink called on shared snapshot led`,
			`snapshotro: shared snapshot led passed to commit`,
			`snapshotro: shared snapshot led passed to rollback`,
			`snapshotro: write through shared snapshot recs`,
			`snapshotro: write through shared snapshot rec;`,
			`errflow: error from Commit discarded`,
			`errflow: error from Commit discarded`,
			`errflow: error formatted with %v`,
			`determinism: time\.Now in a journal-feeding package`,
			`determinism: time\.Since in a journal-feeding package`,
			`determinism: append to out inside map iteration`,
			`floatcmp: floating-point == comparison`,
		},
	},
	{
		name: "shard",
		pkg:  "repro/internal/shard",
		src: `import (
	"fmt"

	"repro/internal/core"
)

func (r *Router) censusTables() {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.jobPods[0] = 0
	delete(r.jobPods, 0)
	r.idem[""] = core.IdemState{}
	r.idem.Bind(core.Mutation{})
	pods := r.jobPods
	pods[0] = 0
	is := r.idem[""]
	is.Placement[0].Count = 0
}

func censusSend(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k
	}
}

func censusWrap(err error) error { return fmt.Errorf("shard: %v", err) }

// Checkpoint is what core's journal interface calls under Manager.mu.
func (r *Router) Checkpoint(*core.ManagerState) error {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	return nil
}
` + mapWalk,
		also: []string{"repro/internal/core"},
		want: []string{
			`journalseam: write to Router\.jobPods outside the shard commit seam`,
			`journalseam: delete of Router\.jobPods`,
			`journalseam: write to Router\.idem`,
			`journalseam: Bind on Router\.idem`,
			`snapshotro: write through shared snapshot pods`,
			`snapshotro: write through shared snapshot is;`,
			`determinism: channel send inside map iteration`,
			`determinism: append to out inside map iteration`,
			`errflow: error formatted with %v`,
			`lockorder: call to Checkpoint may acquire shard\.Router\.tabMu while holding core\.Manager\.mu, violating the documented lock order`,
		},
		vetNo: []string{`lockorder: call to Checkpoint may acquire shard\.Router\.tabMu`},
	},
	{
		name: "daemon",
		pkg:  "repro/internal/daemon",
		src: `import (
	"time"

	"repro/internal/core"
)

// Checkpoint is what core's journal interface calls under Manager.mu.
func (d *Daemon) Checkpoint(*core.ManagerState) error {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	return nil
}

func (d *Daemon) censusSpawn() {
	go d.censusLoop()
	go func() {
		for {
			d.censusTick()
		}
	}()
	//lint:ignore determinism the loop ends with the process
	go d.censusLoop()
}

func (d *Daemon) censusLoop() {
	for {
		time.Sleep(time.Second)
	}
}

func (d *Daemon) censusTick() {}
`,
		also: []string{"repro/internal/core"},
		want: []string{
			`goroutinelife: goroutine has no shutdown edge: censusLoop reaches an endless for loop`,
			`goroutinelife: goroutine has no shutdown edge: it reaches an endless for loop`,
			`goroutinelife: goroutine has no shutdown edge: censusLoop reaches an endless for loop`,
			`lockorder: call to Checkpoint may acquire daemon\.Daemon\.roleMu while holding core\.Manager\.mu, violating the documented lock order`,
		},
		vetNo: []string{`lockorder: call to Checkpoint may acquire daemon\.Daemon\.roleMu`},
	},
	{
		name: "replica",
		pkg:  "repro/internal/replica",
		src: `import (
	"fmt"

	"repro/internal/core"
)

func (s *Standby) censusReplay() error {
	s.mu.Lock()
	s.syncMu.Lock()
	s.syncMu.Unlock()
	s.mu.Unlock()
	err := s.mgr.Replay(core.Mutation{})
	return fmt.Errorf("replica: %v", err)
}
`,
		want: []string{
			`lockorder: acquires replica\.Standby\.syncMu while holding replica\.Standby\.mu, violating the documented lock order`,
			`journalseam: Replay outside internal/wal applies a raw journal record`,
			`errflow: error formatted with %v`,
		},
	},
	{
		name: "wal",
		pkg:  "repro/internal/wal",
		src: `import (
	"fmt"
	"os"

	"repro/internal/core"
)

func (j *Journal) censusOrder() {
	j.mu.Lock()
	j.writeMu.Lock()
	j.writeMu.Unlock()
	j.mu.Unlock()
}

func (j *Journal) censusCommit(mut core.Mutation) error {
	wait, _ := j.StageCommit(mut)
	return wait()
}

func censusSync(f *os.File) {
	defer f.Sync()
	//lint:ignore determinism best-effort, as the directory fsync is
	f.Sync()
}

func censusWrap(err error) error { return fmt.Errorf("wal: %v", err) }
` + mapWalk,
		want: []string{
			`lockorder: acquires wal\.Journal\.writeMu while holding wal\.Journal\.mu, violating the documented lock order`,
			`errflow: error from StageCommit discarded`,
			`errflow: error from Sync discarded`,
			`errflow: error from Sync discarded`,
			`errflow: error formatted with %v`,
			`determinism: append to out inside map iteration`,
		},
	},
	{
		name: "httpapi",
		pkg:  "repro/internal/httpapi",
		src: `import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/core"
)

func (s *Server) censusAllocateHomog(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.AllocateHomog(core.Homogeneous{})
}

func (s *Server) censusAllocateHetero(w http.ResponseWriter) {
	mgr := s.manager()
	writeJSON(w, http.StatusCreated, nil)
	mgr.AllocateHetero(core.Heterogeneous{})
}

func (s *Server) censusRelease(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusNoContent)
	mgr.Release(0)
}

func (s *Server) censusFailMachine(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.FailMachine(0)
}

func (s *Server) censusRestoreMachine(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.RestoreMachine(0)
}

func (s *Server) censusFailLink(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.FailLink(0)
}

func (s *Server) censusRestoreLink(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.RestoreLink(0)
}

func (s *Server) censusRepairJob(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.RepairJob(0)
}

func (s *Server) censusRepairAll(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	mgr.RepairAll()
}

// SetOffline is in no name table: only the graph sees it reach the log.
func (s *Server) censusSetOffline(w http.ResponseWriter) {
	mgr := s.manager()
	w.WriteHeader(http.StatusOK)
	_ = mgr.(*core.Manager).SetOffline(0, false)
}

type censusPair struct{ a, b sync.Mutex }

func (p *censusPair) ab() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *censusPair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

func censusWrap(err error) error { return fmt.Errorf("httpapi: %v", err) }
`,
		want: []string{
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`,
			`lockorder: lock-order cycle among httpapi\.censusPair\.a, httpapi\.censusPair\.b`,
			`errflow: error formatted with %v`,
		},
		vetNo: []string{`durabilitycheck: 2xx acknowledged without a preceding journal commit-wait`},
	},
	{
		name: "sim",
		pkg:  "repro/internal/sim",
		src: `import (
	"repro/internal/core"
	"repro/internal/stats"
)

func censusLedger(m *core.Manager) {
	m.Ledger().AddStochastic(0, stats.Normal{})
	m.Ledger().RemoveStochastic(0, stats.Normal{})
	m.Ledger().AddDet(0, 0)
	m.Ledger().RemoveDet(0, 0)
	m.Ledger().UseSlots(0, 0)
	m.Ledger().ReleaseSlots(0, 0)
	m.Ledger().SetOffline(0, false)
	m.Ledger().Faults().FailMachine(0)
	m.Ledger().Faults().RestoreMachine(0)
	m.Ledger().Faults().FailLink(0)
	m.Ledger().Faults().RestoreLink(0)
}
` + mapWalk,
		want: []string{
			`journalseam: direct Ledger\.AddStochastic outside internal/core`,
			`journalseam: direct Ledger\.RemoveStochastic outside internal/core`,
			`journalseam: direct Ledger\.AddDet outside internal/core`,
			`journalseam: direct Ledger\.RemoveDet outside internal/core`,
			`journalseam: direct Ledger\.UseSlots outside internal/core`,
			`journalseam: direct Ledger\.ReleaseSlots outside internal/core`,
			`journalseam: direct Ledger\.SetOffline outside internal/core`,
			`journalseam: direct Faults\.FailMachine outside internal/core`,
			`journalseam: direct Faults\.RestoreMachine outside internal/core`,
			`journalseam: direct Faults\.FailLink outside internal/core`,
			`journalseam: direct Faults\.RestoreLink outside internal/core`,
			`determinism: append to out inside map iteration`,
		},
	},
	{
		name: "scenario",
		pkg:  "repro/internal/scenario",
		src: `import "repro/internal/topology"

func censusOverlay(f *topology.Faults) {
	f.FailMachine(0)
	f.RestoreMachine(0)
	f.FailLink(0)
	f.RestoreLink(0)
	//lint:ignore determinism engine-private overlay, not manager state
	f.FailMachine(0)
}
` + mapWalk,
		want: []string{
			`journalseam: direct Faults\.FailMachine outside internal/core`,
			`journalseam: direct Faults\.RestoreMachine outside internal/core`,
			`journalseam: direct Faults\.FailLink outside internal/core`,
			`journalseam: direct Faults\.RestoreLink outside internal/core`,
			`journalseam: direct Faults\.FailMachine outside internal/core`,
			`determinism: append to out inside map iteration`,
		},
	},
	{
		name: "topology",
		pkg:  "repro/internal/topology",
		src:  mapWalk,
		edit: [][3]string{{"faults.go", "\t\tcacheEpoch:  f.cacheEpoch,\n", ""}},
		want: []string{
			`snapshotro: Clone of Faults does not copy field "cacheEpoch"`,
			`determinism: append to out inside map iteration`,
		},
	},
	{
		name: "stats",
		pkg:  "repro/internal/stats",
		src: `import "math/rand/v2"

func censusRand() int { return rand.IntN(2) }

//lint:ignore determinism
var censusUnjustified = 1

//lint:ignore
var censusUnnamed = 2
` + mapWalk,
		want: []string{
			`determinism: package-level rand\.IntN uses shared global RNG state`,
			`determinism: append to out inside map iteration`,
			`directives: //lint:ignore directive needs a justification`,
			`directives: //lint:ignore directive needs a justification`,
			`directives: //lint:ignore directive names no analyzer`,
		},
	},
}

// TestCensus runs svclint's suite over each census case twice: with the
// call graph over every module package, as `svclint ./...` does, and with
// a graph over the mutated package alone, as `go vet -vettool` does.
func TestCensus(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	targets, exports, err := loader.List(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	// The module from source, dependencies first, as loader.Load does.
	fset := token.NewFileSet()
	im := loader.NewImporter(exports)
	byPath := map[string]*loader.Package{}
	var order []string
	for _, tg := range targets {
		var names []string
		for _, f := range tg.GoFiles {
			names = append(names, filepath.Join(tg.Dir, f))
		}
		if len(names) == 0 {
			continue
		}
		pkg, err := loader.CheckFiles(tg.ImportPath, fset, names, im)
		if err != nil {
			t.Fatal(err)
		}
		im.Add(pkg.Types)
		byPath[tg.ImportPath] = pkg
		order = append(order, tg.ImportPath)
	}

	for _, tc := range censusCases {
		t.Run(tc.name, func(t *testing.T) {
			orig := byPath[tc.pkg]
			if orig == nil {
				t.Fatalf("no package %s", tc.pkg)
			}
			mut := censusPackage(t, orig, tc.src, tc.edit, im)

			var units []*callgraph.Unit
			for _, p := range order {
				if p == tc.pkg {
					units = append(units, unitOf(mut))
				} else {
					units = append(units, unitOf(byPath[p]))
				}
			}
			var whole []analysis.Diagnostic
			for _, pkg := range append([]*loader.Package{mut}, packages(byPath, tc.also)...) {
				ds, err := runSuite(pkg, callgraph.Build(units))
				if err != nil {
					t.Fatal(err)
				}
				whole = append(whole, ds...)
			}
			matchCensus(t, "whole program", whole, tc.want)

			vet, err := runSuite(mut, callgraph.Build([]*callgraph.Unit{unitOf(mut)}))
			if err != nil {
				t.Fatal(err)
			}
			matchCensus(t, "one package", vet, without(tc.want, tc.vetNo))
		})
	}
}

// censusPackage type-checks pkg's files, with the edits applied and the
// census file added, through im, the importer that loaded the module (so
// every import resolves to the very package the rest of the module sees).
func censusPackage(t *testing.T, pkg *loader.Package, src string, edits [][3]string, im *loader.Importer) *loader.Package {
	t.Helper()
	dir := t.TempDir()
	var names []string
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, e := range edits {
			if e[0] == filepath.Base(name) {
				if !strings.Contains(text, e[1]) {
					t.Fatalf("%s no longer holds %q: update the census", name, e[1])
				}
				text = strings.Replace(text, e[1], e[2], 1)
			}
		}
		out := filepath.Join(dir, filepath.Base(name))
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, out)
	}
	census := filepath.Join(dir, "census.go")
	if err := os.WriteFile(census, []byte("package "+pkg.Types.Name()+"\n\n"+src), 0o644); err != nil {
		t.Fatal(err)
	}
	mut, err := loader.CheckFiles(pkg.ImportPath, pkg.Fset, append(names, census), im)
	if err != nil {
		t.Fatalf("the census names code that is gone: %v", err)
	}
	return mut
}

func packages(byPath map[string]*loader.Package, paths []string) []*loader.Package {
	var out []*loader.Package
	for _, p := range paths {
		out = append(out, byPath[p])
	}
	return out
}

// without returns want minus one occurrence of each entry of drop.
func without(want, drop []string) []string {
	out := append([]string(nil), want...)
	for _, d := range drop {
		for i, w := range out {
			if w == d || strings.HasPrefix(w, d) {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// matchCensus pairs every finding with one expectation and reports what
// is left over on either side.
func matchCensus(t *testing.T, mode string, diags []analysis.Diagnostic, want []string) {
	t.Helper()
	left := append([]string(nil), want...)
	for _, d := range diags {
		got := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		matched := false
		for i, w := range left {
			if regexp.MustCompile(w).MatchString(got) {
				left = append(left[:i], left[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding %s", mode, d)
		}
	}
	for _, w := range left {
		t.Errorf("%s: no finding matched %q", mode, w)
	}
}
