package daemon

import (
	"context"
	"errors"
	"reflect"
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
	return startNode(t, Config{Topo: podsTopo(t), StateDir: stateDir, Shards: 2})
}

// TestShardedDaemonServesAndRecovers is the sharded end-to-end check:
// a daemon with -shards admits jobs over HTTP into single pods, answers
// 409 to a request no single pod can host, reports the sharding status
// section, and recovers every admission — and its idempotency binding —
// from the per-pod WALs after an abrupt crash.
func TestShardedDaemonServesAndRecovers(t *testing.T) {
	stateDir := t.TempDir()
	ctx := context.Background()

	d1 := startShardedDaemon(t, stateDir)
	c1 := testClient(d1)

	// 3 VMs fit one pod's 4 slots.
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 3, Mu: 20}); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	// 5 VMs fit no single pod (1 and 4 slots left); the router has no
	// cross-pod placement, so this is a capacity rejection.
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 5, Mu: 20}); !httpapi.IsNoCapacity(err) {
		t.Fatalf("allocate across pods = %v, want 409 no capacity", err)
	}
	keyedReq := httpapi.AllocationRequest{N: 2, Mu: 20}
	keyed, err := c1.Allocate(ctx, keyedReq, httpapi.WithIdempotencyKey("keyed-1"))
	if err != nil {
		t.Fatalf("keyed allocate: %v", err)
	}

	before, err := c1.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if before.RunningJobs != 2 || before.FreeSlots != 3 {
		t.Fatalf("status = %d jobs / %d free, want 2 / 3", before.RunningJobs, before.FreeSlots)
	}
	sh := before.Sharding
	if sh == nil {
		t.Fatal("status has no sharding section")
	}
	if sh.Shards != 2 || len(sh.Pods) != 2 || sh.Pods[0].Jobs+sh.Pods[1].Jobs != 2 {
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
	// pod WALs.
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
	if after.RunningJobs != 2 || after.FreeSlots != 3 || !reflect.DeepEqual(after.Sharding, before.Sharding) {
		t.Fatalf("restarted status = %d jobs / %d free / %+v, want 2 / 3 / %+v",
			after.RunningJobs, after.FreeSlots, after.Sharding, before.Sharding)
	}

	// The keyed allocate must replay, not re-reserve.
	replay, err := c2.Allocate(ctx, keyedReq, httpapi.WithIdempotencyKey("keyed-1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if replay.ID != keyed.ID {
		t.Errorf("replay returned job %d, want %d", replay.ID, keyed.ID)
	}
	// A repair runs in the job's pod; an undisplaced job is a noop.
	if res, err := c2.Repair(ctx, keyed.ID); err != nil || res.Outcome != "noop" {
		t.Errorf("repair = %+v (err %v), want a noop", res, err)
	}
	if err := c2.Release(ctx, keyed.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	final, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.RunningJobs != 1 || final.FreeSlots != 5 {
		t.Fatalf("post-release status = %d jobs / %d free, want 1 / 5", final.RunningJobs, final.FreeSlots)
	}
}

// TestShardedFaultUnderForeignKeyConflicts: on a -shards node, POST
// /v1/faults under a key an allocation committed — or a restore under the
// key of its fail — answers 409 and applies nothing, before and after a
// crash restart (the router's table is rebuilt from the pod WALs).
func TestShardedFaultUnderForeignKeyConflicts(t *testing.T) {
	stateDir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Topo: podsTopo(t), StateDir: stateDir, Shards: 2}
	d := startNode(t, cfg)
	c := testClient(d)
	if _, err := c.Allocate(ctx, httpapi.AllocationRequest{N: 2, Mu: 20}, httpapi.WithIdempotencyKey("alloc-1")); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	mc := int(cfg.Topo.Machines()[0])
	if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc}, httpapi.WithIdempotencyKey("fail-1")); err != nil {
		t.Fatalf("fault: %v", err)
	}
	for _, restarted := range []bool{false, true} {
		if restarted {
			d.Crash()
			d = startNode(t, cfg)
			c = testClient(d)
		}
		var apiErr *httpapi.APIError
		if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc}, httpapi.WithIdempotencyKey("alloc-1")); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
			t.Errorf("restarted %v: fault under an allocation's key = %v, want 409", restarted, err)
		}
		if _, err := c.Fault(ctx, httpapi.FaultRequest{Machine: &mc, Restore: true}, httpapi.WithIdempotencyKey("fail-1")); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
			t.Errorf("restarted %v: restore under its fail's key = %v, want 409", restarted, err)
		}
		st, err := c.Failures(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.MachineFailures != 1 || st.MachineRestores != 0 || st.MachinesDown != 1 {
			t.Errorf("restarted %v: refused calls were applied: %+v", restarted, st)
		}
	}
	if err := shutdown(d); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
