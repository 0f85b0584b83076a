package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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

	golden := filepath.Join("testdata", "golden", "baseline.sim.json")
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
		t.Fatalf("baseline report drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
