package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// dirBytes reads every file of dir, so a test can show svcwal left it
// byte for byte alone.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestSmoke runs svcwal over the checked-in legacy (JSON) state directory
// in place and over a freshly written binary log.
func TestSmoke(t *testing.T) {
	legacy := filepath.Join("..", "..", "internal", "wal", "testdata", "legacy-v1")
	before := dirBytes(t, legacy)
	var out bytes.Buffer
	if err := run([]string{legacy}, &out); err != nil {
		t.Fatalf("svcwal %s: %v", legacy, err)
	}
	for _, want := range []string{
		`{"file":"snap-2.snap","meta":{"gen":2,"eps":0.05,"nodes":7,"slots":12}}`,
		"snap-2.snap: format json, 404 bytes, 2 jobs, 1 bindings, 0 machines down, 0 links down\n",
		`"format":"json","op":"alloc","job":3,"homog":{"n":4,"mu":2}`,
		`"format":"json","op":"epoch","epoch":3}`,
		"wal-2.log: 17 records, clean length 1864 bytes, epoch 3\n",
		"intents.log: 4 records, clean length 386 bytes\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("legacy output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"state", legacy}, &out); err != nil {
		t.Fatalf("svcwal state %s: %v", legacy, err)
	}
	if want := `{"next_id":2,"links":[`; !strings.HasPrefix(out.String(), want) || !strings.Contains(out.String(), `"idem":{"legacy-a":{"op":1,"job":1,`) {
		t.Errorf("legacy state output does not open with %q or lacks its binding:\n%s", want, out.String())
	}
	if after := dirBytes(t, legacy); len(after) != len(before) {
		t.Fatal("svcwal added or removed files in the directory it inspected")
	} else {
		for name, data := range before {
			if after[name] != data {
				t.Fatalf("svcwal modified %s", name)
			}
		}
	}

	dir := t.TempDir()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, j, err := wal.Recover(dir, topo, 0.05, nil, wal.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.AllocateHomog(core.Homogeneous{N: 49, Demand: stats.Normal{Mu: 100, Sigma: 40}}, core.WithIdemKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if a, err = m.AllocateHomog(core.Homogeneous{N: 49, Demand: stats.Normal{Mu: 100, Sigma: 40}}, core.WithIdemKey("k2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"state", dir}, &out); err != nil {
		t.Fatalf("svcwal state %s: %v", dir, err)
	}
	var snapshot core.ManagerState
	if err := json.Unmarshal(out.Bytes(), &snapshot); err != nil || snapshot.NextID != 1 || len(snapshot.Jobs) != 1 || len(snapshot.Idem) != 1 {
		t.Errorf("svcwal state printed (err %v):\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{dir}, &out); err != nil {
		t.Fatalf("svcwal %s: %v", dir, err)
	}
	for _, want := range []string{
		`{"file":"snap-2.snap","meta":{"gen":2,"eps":0.05,"nodes":1056,"slots":4000}}`,
		"snap-2.snap: format bin1, ",
		" bytes, 1 jobs, 1 bindings, 0 machines down, 0 links down\n",
		`"format":"bin1","op":"alloc","job":2,"homog":{"n":49,"mu":100,"sigma":40},"placement":[`,
		`"idem_key":"k2"}`,
		`"format":"bin1","op":"release","job":2}`,
		"wal-2.log: 2 records, clean length ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("binary output lacks %q:\n%s", want, out.String())
		}
	}

	if err := run(nil, &out); err == nil {
		t.Fatal("svcwal with no directory must fail")
	}
	if err := run([]string{t.TempDir()}, &out); err == nil {
		t.Fatal("svcwal on a directory with no log must fail")
	}
	if err := run([]string{"state", t.TempDir()}, &out); err == nil {
		t.Fatal("svcwal state on a directory with no snapshot must fail")
	}
}
