package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate golden report files")

// TestGoldenBaselineReport pins the byte-exact JSON report of the
// committed baseline scenario: fixed seed in, identical report out, on
// every machine and every run. Any diff here means something in the
// decode → compile → admit → measure → report pipeline stopped being
// deterministic (or deliberately changed — regenerate with
// `go test ./internal/scenario -run TestGolden -update`).
func TestGoldenBaselineReport(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "baseline.yaml"))
	if err != nil {
		t.Fatalf("read baseline scenario: %v", err)
	}
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	run := func() []byte {
		p, err := s.Compile()
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		b, err := NewSimBackend(p.Topo, s.Eps)
		if err != nil {
			t.Fatalf("NewSimBackend: %v", err)
		}
		defer b.Close()
		rep, err := Run(p, b)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		buf, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return buf
	}
	got := run()
	if again := run(); !bytes.Equal(got, again) {
		t.Fatalf("two runs of the same plan produced different reports")
	}
	checkGolden(t, filepath.Join("testdata", "golden", "baseline.sim.json"), got)
}

// TestGoldenGuarantee pins the Monte Carlo guarantee block of every
// corpus scenario that asserts one, on the offline backend (the sharded
// router for a scenario with run.shards): the chaos runs with repairs and
// failovers, and the negative control's overflow. baseline's block is
// pinned twice, here and in its whole report above.
func TestGoldenGuarantee(t *testing.T) {
	corpus := loadCorpus(t)
	var names []string
	for name, s := range corpus {
		if s.Assert.Guarantee != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rep := runSim(t, corpus[name])
			if rep.Guarantee == nil {
				t.Fatal("the report carries no guarantee block")
			}
			got, err := json.MarshalIndent(rep.Guarantee, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "guarantee", name+".json"), append(got, '\n'))
		})
	}
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
