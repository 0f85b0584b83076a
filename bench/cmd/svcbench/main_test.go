package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/bench/svcload"
	"repro/internal/topology"
	"repro/internal/wal"
)

// testEnv is an env without a built svcd: enough for everything that
// runs in process.
func testEnv(t *testing.T) *env {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &env{tmp: t.TempDir(), out: t.TempDir(), topo: topo, procs: map[*svcd]struct{}{}}
}

// BENCHMARK.json is generated from the tables in this package
// (svcbench -manifest); this holds the committed file to them.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from svcbench -manifest; regenerate it")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = string(b)
	}
	return files
}

// The state directories are inputs: the same seed must write the same
// bytes, and recovering them must give back the state they were built
// with.
func TestSameSeedSameStateDirs(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	small := snapShape{liveSlots: 200, bindings: 400, tail: 50}
	build := func(seed uint64) (*stateDir, *stateDir) {
		logDir, err := e.buildLogDir(ctx, nil, seed, 600)
		if err != nil {
			t.Fatal(err)
		}
		snapDir, err := e.buildSnapDir(ctx, nil, seed, small)
		if err != nil {
			t.Fatal(err)
		}
		return logDir, snapDir
	}
	log1, snap1 := build(5)
	log2, snap2 := build(5)
	log3, _ := build(6)
	if !reflect.DeepEqual(dirBytes(t, log1.path), dirBytes(t, log2.path)) {
		t.Error("the same seed wrote two different log directories")
	}
	if !reflect.DeepEqual(dirBytes(t, snap1.path), dirBytes(t, snap2.path)) {
		t.Error("the same seed wrote two different snapshot directories")
	}
	if reflect.DeepEqual(dirBytes(t, log1.path), dirBytes(t, log3.path)) {
		t.Error("two seeds wrote the same log directory")
	}
	if log1.records != 600 || snap1.records != small.tail {
		t.Errorf("log directory holds %d records, snapshot tail %d; want 600 and %d", log1.records, snap1.records, small.tail)
	}
	if len(dirBytes(t, snap1.path)) != 2 {
		t.Errorf("snapshot directory holds %d files, want a snapshot and a log", len(dirBytes(t, snap1.path)))
	}
	for _, d := range []*stateDir{log1, snap1} {
		mgr, journal, err := wal.Recover(d.path, e.topo, eps, nil, wal.WithNoSync())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mgr.ExportState(), d.state) {
			t.Errorf("%s: recovery does not give back the state it was built with", d.path)
		}
		journal.Close()
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	q1, q3 = quartiles([]float64{3, 5})
	if q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles of 3, 5 = %v, %v; want 2.5, 5.5", q1, q3)
	}
	sp := summarise(metricDef{Name: "x", Unit: "ms", Bound: 0.1}, []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(sp.IQR-1) > 1e-12 || math.Abs(sp.Range-9/5.5) > 1e-12 {
		t.Errorf("spread %+v: want iqr/median 1, range/median %v", sp, 9/5.5)
	}
}

// The stopwatch's interval is the wall-clock interval times the scale it
// reports, and the scale is the processor's speed: positive, and the same
// within a few percent when asked twice in a row on an idle machine
// (checked loosely: the test may share its processor).
func TestStopwatchScales(t *testing.T) {
	res := newResult()
	watch := res.stopwatch()
	began := time.Now()
	time.Sleep(20 * time.Millisecond)
	scaled, scale := watch.stop()
	raw := time.Since(began)
	if scale <= 0 || len(res.speeds) != 1 || res.speed() != scale {
		t.Fatalf("scale %v, speeds %v", scale, res.speeds)
	}
	// stop ran the calibration loop after reading the clock, so raw is the longer.
	if got := float64(scaled) / scale; got < float64(20*time.Millisecond) || got > float64(raw) {
		t.Errorf("scaled %v at scale %v is %v unscaled; slept 20ms, %v passed", scaled, scale, time.Duration(got), raw)
	}
}

// The reference server answers the generator's requests with their own
// document, appends one record per request, and its clock weighs the two
// speeds as documented.
func TestReferenceServer(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "ref.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(&refServer{src: make([]byte, refClone), log: f, sync: true})
	defer srv.Close()

	conn := svcload.NewHTTPTarget(srv.URL, 1)
	defer conn.Close()
	res := newResult()
	ref := &reference{res: res, conn: conn, nominal: refRate, load: &svcload.Runner{Target: conn},
		gen: svcload.NewGen(svcload.Mix{Name: "reference", DryRun: 1}, 1)}
	ran := false
	scale := ref.time(context.Background(), func() { ran = true })
	attempted, failed, _, _ := ref.load.Tally()
	if !ran || failed != 0 || attempted == 0 || len(res.problems) != 0 {
		t.Fatalf("ran %v, %d of %d reference requests failed, problems %v", ran, failed, attempted, res.problems)
	}
	if st, err := f.Stat(); err != nil || st.Size() != int64(attempted)*refRecord {
		t.Errorf("reference log holds %v bytes after %d requests of %d bytes (%v)", st.Size(), attempted, refRecord, err)
	}
	if len(ref.speeds) != 2 || len(res.speeds) != 1 {
		t.Fatalf("server speeds %v, loop speeds %v; want one before, one after, one around", ref.speeds, res.speeds)
	}
	want := math.Pow(res.speeds[0], 1.0/3) * math.Pow((ref.speeds[0]+ref.speeds[1])/2, 2.0/3)
	if math.Abs(scale-want) > 1e-12*want {
		t.Errorf("scale %v, want %v from loops %v and server %v", scale, want, res.speeds, ref.speeds)
	}
}

// The traced replay on a short stream: spans of every seam appear, the
// self times add up to the handler time, and the trace file is written.
func TestTracedReplayAddsUp(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	gen := svcload.NewGen(svcload.DurableChurn, 1)
	tr, err := tracedReplay(ctx, e, "test", gen.Prefill(400), gen.Take(300), false)
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.layers["trace.span_sum_over_e2e"]; r < 0.95 || r > 1.05 {
		t.Errorf("self times add up to %v of the handler time", r)
	}
	for _, name := range []string{"httpapi.handle_self_us", "core.admit_self_us", "core.release_self_us", "wal.stage_us", "wal.commit_wait_us"} {
		if tr.layers[name] <= 0 {
			t.Errorf("%s = %v, want a positive time", name, tr.layers[name])
		}
	}
	if st, err := os.Stat(e.traceFile("test")); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
