package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
)

func TestRunRejectsBadFlags(t *testing.T) {
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

// TestShardedDaemonFlagValidation walks the whole flag surface: every
// combination of -role, -follow, -state-dir and -shards the daemon accepts
// must boot and shut down cleanly, and every combination it cannot serve
// must be refused by name, never silently ignored.
func TestShardedDaemonFlagValidation(t *testing.T) {
	// Two pods: each one aggregation subtree with two 2-slot machines.
	pods := filepath.Join(t.TempDir(), "pods.json")
	spec := `{"children": [
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]},
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]}
	]}`
	if err := os.WriteFile(pods, []byte(spec), 0o644); err != nil {
		t.Fatalf("write topo: %v", err)
	}
	const dead = "http://127.0.0.1:1"
	cases := []struct {
		name    string
		args    []string
		dir     bool   // give it a -state-dir
		refused string // fragment of the refusal; "" when the daemon must boot
	}{
		{name: "in-memory primary"},
		{name: "journaled primary", dir: true},
		{name: "explicit role", args: []string{"-role", "primary"}, dir: true},
		{name: "standby", args: []string{"-role", "standby", "-follow", dead}, dir: true},
		{name: "shards, default mode", args: []string{"-topo", pods, "-shards", "2"}, dir: true},

		// Every node plans with min-max and checkpoints every 4096 records;
		// neither is a flag, and naming one is refused, not ignored.
		{name: "policy is no flag", args: []string{"-policy", "minmax"}, refused: "flag provided but not defined: -policy"},
		{name: "checkpoint-every is no flag", args: []string{"-checkpoint-every", "10"}, dir: true, refused: "flag provided but not defined: -checkpoint-every"},
		{name: "unknown role", args: []string{"-role", "observer"}, refused: "unknown role"},
		{name: "follow on a primary", args: []string{"-follow", dead}, dir: true, refused: "-follow requires -role standby"},
		{name: "standby without state-dir", args: []string{"-role", "standby", "-follow", dead}, refused: "-role standby needs"},
		{name: "standby without follow", args: []string{"-role", "standby"}, dir: true, refused: "-role standby needs"},
		{name: "shards without state-dir", args: []string{"-topo", pods, "-shards", "2"}, refused: "-shards needs -state-dir"},
		{name: "shards on a standby", args: []string{"-topo", pods, "-shards", "2", "-role", "standby", "-follow", dead}, dir: true, refused: "-shards requires -role primary"},
		{name: "shards not matching the pod count", args: []string{"-shards", "3"}, dir: true, refused: "shard count"}, // builtin paper topology has 5 pods
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-no-sync"}, tc.args...)
			if tc.dir {
				args = append(args, "-state-dir", t.TempDir())
			}
			var d *daemon.Daemon
			cfg, err := parseConfig(args)
			if err == nil {
				d, err = daemon.New(cfg)
			}
			if tc.refused != "" {
				if err == nil {
					t.Fatalf("accepted, want a refusal naming %q", tc.refused)
				}
				if !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("refused with %q, want it to name %q", err, tc.refused)
				}
				return
			}
			if err != nil {
				t.Fatalf("svcd %v: %v", args, err)
			}
			d.Start()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}
}
