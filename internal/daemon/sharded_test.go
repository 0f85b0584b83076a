package daemon

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/topology"
)

// podsTopo is a two-pod topology: each pod is one aggregation subtree
// with two 2-slot machines (4 slots per pod, 8 total).
func podsTopo(t *testing.T) *topology.Topology {
	t.Helper()
	spec, err := topology.ReadSpec(strings.NewReader(`{"children": [
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]},
		{"upCapMbps": 400, "children": [{"upCapMbps": 200, "slots": 2}, {"upCapMbps": 200, "slots": 2}]}
	]}`))
	if err != nil {
		t.Fatalf("topology spec: %v", err)
	}
	topo, err := topology.NewFromSpec(spec)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return topo
}

func startShardedDaemon(t *testing.T, stateDir string) *Daemon {
	return startNode(t, Config{Topo: podsTopo(t), StateDir: stateDir, Shards: 2, ShardMode: "strict"})
}

// TestShardedDaemonServesAndRecovers is the sharded end-to-end check:
// a daemon with -shards admits pod-local and cross-pod jobs over HTTP,
// reports the sharding status section, and recovers every admission —
// including the cross-pod one and its idempotency binding — from the
// per-pod WALs plus the intent log after an abrupt crash.
func TestShardedDaemonServesAndRecovers(t *testing.T) {
	stateDir := t.TempDir()
	ctx := context.Background()

	d1 := startShardedDaemon(t, stateDir)
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
	d1.Crash()

	d2 := startShardedDaemon(t, stateDir)
	defer func() {
		if err := shutdown(d2); err != nil {
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

	// A cross-pod job cannot be repaired in place: the client's error (409,
	// with the reason), not the server's.
	var apiErr *httpapi.APIError
	if _, err := c2.Repair(ctx, cross.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 ||
		!strings.Contains(apiErr.Message, "spans pods") {
		t.Errorf("repair of the cross-pod job = %v, want 409 naming the pods it spans", err)
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

// TestShardedFaultUnderForeignKeyConflicts: on a -shards node in either
// -shard-mode, POST /v1/faults under a key an allocation committed — or a
// restore under the key of its fail — answers 409 and applies nothing,
// before and after a crash restart (the router's table is rebuilt from
// the pod WALs).
func TestShardedFaultUnderForeignKeyConflicts(t *testing.T) {
	for _, mode := range []string{"strict", "fast"} {
		stateDir := t.TempDir()
		ctx := context.Background()
		cfg := Config{Topo: podsTopo(t), StateDir: stateDir, Shards: 2, ShardMode: mode}
		d := startNode(t, cfg)
		c := testClient(d)
		if _, err := c.Allocate(ctx, httpapi.AllocationRequest{N: 2, Mu: 20}, httpapi.WithIdempotencyKey("alloc-1")); err != nil {
			t.Fatalf("%s: allocate: %v", mode, err)
		}
		mc := int(cfg.Topo.Machines()[0])
		if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc}, httpapi.WithIdempotencyKey("fail-1")); err != nil {
			t.Fatalf("%s: fault: %v", mode, err)
		}
		for _, restarted := range []bool{false, true} {
			if restarted {
				d.Crash()
				d = startNode(t, cfg)
				c = testClient(d)
			}
			var apiErr *httpapi.APIError
			if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc}, httpapi.WithIdempotencyKey("alloc-1")); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
				t.Errorf("%s (restarted %v): fault under an allocation's key = %v, want 409", mode, restarted, err)
			}
			if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc, Restore: true}, httpapi.WithIdempotencyKey("fail-1")); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
				t.Errorf("%s (restarted %v): restore under its fail's key = %v, want 409", mode, restarted, err)
			}
			st, err := c.Failures(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.MachineFailures != 1 || st.MachineRestores != 0 || st.MachinesDown != 1 {
				t.Errorf("%s (restarted %v): refused calls were applied: %+v", mode, restarted, st)
			}
		}
		if err := shutdown(d); err != nil {
			t.Errorf("%s: shutdown: %v", mode, err)
		}
	}
}
