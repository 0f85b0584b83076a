package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-policy", "psychic", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-topo", "/does/not/exist.json", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("missing topology file accepted")
	}
	if err := run([]string{"-eps", "2", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("invalid eps accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-admission", "locked", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("-admission accepted: there is one admission pipeline and no flag to pick another")
	}
	if err := run([]string{"-shard-mode", "strict", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("-shard-mode without -shards accepted")
	}
}

func TestLoadTopologyFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	spec := `{"children": [{"upCapMbps": 100, "slots": 2}, {"upCapMbps": 100, "slots": 2}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	topo, err := loadTopology(path)
	if err != nil {
		t.Fatalf("loadTopology: %v", err)
	}
	if topo.TotalSlots() != 4 {
		t.Errorf("slots = %d, want 4", topo.TotalSlots())
	}
	if _, err := loadTopology(""); err != nil {
		t.Errorf("builtin topology: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := loadTopology(bad); err == nil {
		t.Error("malformed topology accepted")
	}
}
