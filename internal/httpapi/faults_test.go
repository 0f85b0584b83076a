package httpapi

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/topology"
)

// intp builds an optional wire field.
func intp(v int) *int { return &v }

func TestFaultRepairRoundTrip(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()

	resp, err := client.Allocate(ctx, AllocationRequest{N: 6, Mu: 200, Sigma: 80})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}

	// Fail the job's first machine; the job must be reported displaced.
	victim := resp.Placement[0].Machine
	affected, err := client.Fault(ctx, FaultRequest{Machine: intp(victim)})
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if len(affected) != 1 || affected[0] != resp.ID {
		t.Fatalf("affected = %v, want [%d]", affected, resp.ID)
	}

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.MachinesDown != 1 {
		t.Errorf("status machinesDown = %d, want 1", st.MachinesDown)
	}

	// Repair it: the 8-machine test datacenter has plenty of headroom, so
	// the job must move with its original guarantee.
	res, err := client.Repair(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Outcome != "moved" {
		t.Errorf("repair outcome = %q, want moved", res.Outcome)
	}
	if res.MovedVMs == 0 || len(res.Placement) == 0 {
		t.Errorf("repair result = %+v", res)
	}
	for _, e := range res.Placement {
		if e.Machine == victim {
			t.Errorf("repaired placement still uses failed machine %d", victim)
		}
	}

	// Restore and check the counters took note of everything.
	if _, err := client.Fault(ctx, FaultRequest{Machine: intp(victim), Restore: true}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	fstats, err := client.Failures(ctx)
	if err != nil {
		t.Fatalf("Failures: %v", err)
	}
	if fstats.MachineFailures != 1 || fstats.MachineRestores != 1 || fstats.MovedRepairs != 1 {
		t.Errorf("failure stats = %+v", fstats)
	}
	if fstats.MachinesDown != 0 {
		t.Errorf("machines down after restore = %d", fstats.MachinesDown)
	}
	if fstats.RepairLatency.Count != 1 {
		t.Errorf("repair latency count = %d, want 1", fstats.RepairLatency.Count)
	}

	if got := mgr.Running(); got != 1 {
		t.Errorf("Running = %d, want 1", got)
	}
}

func TestRepairAllNoopOnHealthyDatacenter(t *testing.T) {
	client, _ := newTestService(t)
	ctx := context.Background()
	if _, err := client.Allocate(ctx, AllocationRequest{N: 4, Mu: 100, Sigma: 20}); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	results, err := client.RepairAll(ctx)
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("RepairAll on a healthy datacenter repaired %d jobs", len(results))
	}
}

// TestFaultValidation: a fault on a target that is not a machine, has no
// uplink or does not exist is a 400, from the unsharded manager and from
// a 2-pod router alike. The handler checks only the request's shape; the
// target is the controller's to judge (core.ErrBadRequest).
func TestFaultValidation(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 2, SlotsPerMachine: 2,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	router, err := shard.Open(t.TempDir(), topo, 0.05, 2, shard.Options{NoSync: true})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	servers := []struct {
		name   string
		client *Client
	}{
		{"manager", serve(t, mgr)},
		{"router", serve(t, router)},
	}
	ctx := context.Background()
	root := int(topo.Root())
	agg := int(topo.AtLevel(2)[0]) // inside a pod: the pod's manager refuses it

	cases := []struct {
		name string
		req  FaultRequest
	}{
		{"neither machine nor link", FaultRequest{}},
		{"both machine and link", FaultRequest{Machine: intp(1), Link: intp(1)}},
		{"machine id out of range", FaultRequest{Machine: intp(10000)}},
		{"machine id is an internal node", FaultRequest{Machine: &root}},
		{"machine id is a pod's switch", FaultRequest{Machine: &agg, Restore: true}},
		{"link id is the root", FaultRequest{Link: &root}},
		{"link id out of range", FaultRequest{Link: intp(10000), Restore: true}},
		{"negative link id", FaultRequest{Link: intp(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range servers {
				t.Run(s.name, func(t *testing.T) {
					_, err := s.client.Fault(ctx, tc.req)
					if se := asStatus(t, err); se != http.StatusBadRequest {
						t.Errorf("status = %d, want 400", se)
					}
				})
			}
		})
	}
}

func TestRepairUnknownJobIs404(t *testing.T) {
	client, _ := newTestService(t)
	_, err := client.Repair(context.Background(), 999)
	if se := asStatus(t, err); se != http.StatusNotFound {
		t.Errorf("status = %d, want 404", se)
	}
}

func TestFaultLinkDisplacesJob(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	resp, err := client.Allocate(ctx, AllocationRequest{N: 2, Mu: 100, Sigma: 10})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Failing the host uplink of a placement machine severs the machine.
	link := resp.Placement[0].Machine
	affected, err := client.Fault(ctx, FaultRequest{Link: &link})
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if len(affected) != 1 || affected[0] != resp.ID {
		t.Fatalf("affected = %v, want [%d]", affected, resp.ID)
	}
	if down := mgr.Ledger().Faults().LinksDown(); down != 1 {
		t.Errorf("links down = %d, want 1", down)
	}
	if _, err := client.Fault(ctx, FaultRequest{Link: &link, Restore: true}); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// asStatus extracts the HTTP status from an APIError-wrapped error.
func asStatus(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		t.Fatal("request unexpectedly succeeded")
	}
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error %v is not an *APIError", err)
	}
	return apiErr.StatusCode
}
