package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// shardedTopoPath writes a two-pod topology: each pod is one aggregation
// subtree with two 2-slot machines (4 slots per pod, 8 total).
func shardedTopoPath(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pods.json")
	spec := `{"children": [
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]},
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]}
	]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatalf("write topo: %v", err)
	}
	return path
}

func startShardedDaemon(t *testing.T, stateDir, topoPath string) *daemon {
	t.Helper()
	d, err := newDaemon(config{
		addr:            "127.0.0.1:0",
		topoPath:        topoPath,
		eps:             0.05,
		policy:          "minmax",
		stateDir:        stateDir,
		checkpointEvery: 4096,
		noSync:          true,
		shards:          2,
		shardMode:       "strict",
	})
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	d.start()
	return d
}

// TestShardedDaemonFlagValidation walks the whole flag surface: every
// combination of -role, -follow, -state-dir, -shards and -shard-mode the
// daemon accepts must boot and shut down cleanly, and every combination
// it cannot serve must be refused by name, never silently ignored.
func TestShardedDaemonFlagValidation(t *testing.T) {
	pods := shardedTopoPath(t) // two pods
	const dead = "http://127.0.0.1:1"
	cases := []struct {
		name    string
		cfg     config
		dir     bool   // give it a -state-dir
		refused string // fragment of the refusal; "" when the daemon must boot
	}{
		{name: "in-memory primary"},
		{name: "journaled primary", dir: true},
		{name: "explicit role", cfg: config{role: "primary"}, dir: true},
		{name: "standby", cfg: config{role: "standby", follow: dead}, dir: true},
		{name: "shards, default mode", cfg: config{topoPath: pods, shards: 2}, dir: true},
		{name: "shards, strict", cfg: config{topoPath: pods, shards: 2, shardMode: "strict"}, dir: true},
		{name: "shards, fast", cfg: config{topoPath: pods, shards: 2, shardMode: "fast"}, dir: true},

		{name: "unknown policy", cfg: config{policy: "alphabetical"}, refused: "unknown policy"},
		{name: "unknown role", cfg: config{role: "observer"}, refused: "unknown role"},
		{name: "follow on a primary", cfg: config{follow: dead}, dir: true, refused: "-follow requires -role standby"},
		{name: "standby without state-dir", cfg: config{role: "standby", follow: dead}, refused: "-role standby needs"},
		{name: "standby without follow", cfg: config{role: "standby"}, dir: true, refused: "-role standby needs"},
		{name: "shard-mode without shards", cfg: config{shardMode: "fast"}, dir: true, refused: "-shard-mode requires -shards"},
		{name: "default shard-mode named without shards", cfg: config{shardMode: "strict"}, refused: "-shard-mode requires -shards"},
		{name: "shard-mode on a standby", cfg: config{role: "standby", follow: dead, shardMode: "strict"}, dir: true, refused: "-shard-mode requires -shards"},
		{name: "shards without state-dir", cfg: config{topoPath: pods, shards: 2}, refused: "-shards needs -state-dir"},
		{name: "unknown shard mode", cfg: config{topoPath: pods, shards: 2, shardMode: "psychic"}, dir: true, refused: "unknown mode"},
		{name: "shards on a standby", cfg: config{topoPath: pods, shards: 2, role: "standby", follow: dead}, dir: true, refused: "-shards requires -role primary"},
		{name: "shards not matching the pod count", cfg: config{shards: 3}, dir: true, refused: "shard count"}, // builtin paper topology has 5 pods
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.addr, cfg.eps, cfg.checkpointEvery, cfg.noSync = "127.0.0.1:0", 0.05, 4096, true
			if cfg.policy == "" {
				cfg.policy = "minmax"
			}
			if tc.dir {
				cfg.stateDir = t.TempDir()
			}
			d, err := newDaemon(cfg)
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
				t.Fatalf("newDaemon: %v", err)
			}
			d.start()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}
}

// TestShardedDaemonServesAndRecovers is the sharded end-to-end check:
// a daemon with -shards admits pod-local and cross-pod jobs over HTTP,
// reports the sharding status section, and recovers every admission —
// including the cross-pod one and its idempotency binding — from the
// per-pod WALs plus the intent log after an abrupt crash.
func TestShardedDaemonServesAndRecovers(t *testing.T) {
	stateDir := t.TempDir()
	topoPath := shardedTopoPath(t)
	ctx := context.Background()

	d1 := startShardedDaemon(t, stateDir, topoPath)
	c1 := testClient(d1)

	// Pod-local job (fits one pod's 4 slots).
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 3, Mu: 20}); err != nil {
		t.Fatalf("pod-local allocate: %v", err)
	}
	// Cross-pod job: 5 VMs cannot fit in the 1 + 4 slots any single pod
	// still has, so the placement must span both pods.
	crossReq := httpapi.AllocationRequest{N: 5, Mu: 20}
	cross, err := c1.Allocate(ctx, crossReq, httpapi.WithIdempotencyKey("cross-1"))
	if err != nil {
		t.Fatalf("cross-pod allocate: %v", err)
	}

	before, err := c1.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if before.RunningJobs != 2 || before.FreeSlots != 0 {
		t.Fatalf("status = %d jobs / %d free, want 2 / 0", before.RunningJobs, before.FreeSlots)
	}
	sh := before.Sharding
	if sh == nil {
		t.Fatal("status has no sharding section")
	}
	if sh.Mode != "strict" || sh.Shards != 2 || sh.CrossPodJobs != 1 || len(sh.Pods) != 2 {
		t.Fatalf("sharding section = %+v", sh)
	}
	if before.WAL == nil || before.WAL.Appended == 0 {
		t.Fatalf("wal section = %+v, want merged pod appends", before.WAL)
	}
	links, err := c1.Links(ctx, 0)
	if err != nil {
		t.Fatalf("links: %v", err)
	}
	if len(links) != 6 {
		t.Fatalf("links = %d, want 6 (2 pod uplinks + 4 machine links)", len(links))
	}

	// Crash without drain or checkpoint; recovery must rebuild from the
	// pod WALs and the router's intent log.
	d1.server.Close()
	close(d1.stopTick)

	d2 := startShardedDaemon(t, stateDir, topoPath)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d2.shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c2 := testClient(d2)
	after, err := c2.Status(ctx)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if after.RunningJobs != 2 || after.FreeSlots != 0 {
		t.Fatalf("restarted status = %d jobs / %d free, want 2 / 0", after.RunningJobs, after.FreeSlots)
	}
	if after.Sharding == nil || after.Sharding.CrossPodJobs != 1 {
		t.Fatalf("restarted sharding section = %+v", after.Sharding)
	}

	// The keyed cross-pod allocate must replay, not re-reserve.
	replay, err := c2.Allocate(ctx, crossReq, httpapi.WithIdempotencyKey("cross-1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if replay.ID != cross.ID {
		t.Errorf("replay returned job %d, want %d", replay.ID, cross.ID)
	}

	// Releasing the cross-pod job frees both pods' sub-frames.
	if err := c2.Release(ctx, cross.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	final, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.RunningJobs != 1 || final.FreeSlots != 5 || final.Sharding.CrossPodJobs != 0 {
		t.Fatalf("post-release status = %d jobs / %d free / %d cross, want 1 / 5 / 0",
			final.RunningJobs, final.FreeSlots, final.Sharding.CrossPodJobs)
	}
}
