package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// newTestService spins up a manager over a small datacenter behind an
// httptest server and returns a client for it.
func newTestService(t *testing.T) (*Client, *core.Manager) {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 1, ToRsPerAgg: 2, MachinesPerRack: 4, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), mgr
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()

	resp, err := client.Allocate(ctx, AllocationRequest{N: 6, Mu: 200, Sigma: 80})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if resp.VMs != 6 || len(resp.Placement) == 0 {
		t.Errorf("response = %+v", resp)
	}
	if got := mgr.Running(); got != 1 {
		t.Errorf("Running = %d, want 1", got)
	}

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.RunningJobs != 1 || st.FreeSlots != 32-6 || st.TotalSlots != 32 {
		t.Errorf("status = %+v", st)
	}
	if st.Epsilon != 0.05 {
		t.Errorf("epsilon = %v", st.Epsilon)
	}

	if err := client.Release(ctx, resp.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := mgr.Running(); got != 0 {
		t.Errorf("Running after release = %d", got)
	}
}

func TestAllocateRejectionIs409(t *testing.T) {
	client, _ := newTestService(t)
	_, err := client.Allocate(context.Background(), AllocationRequest{N: 1000, Mu: 10})
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	if !IsNoCapacity(err) {
		t.Errorf("err = %v, want capacity rejection", err)
	}
}

func TestAllocateBadRequestIs400(t *testing.T) {
	client, _ := newTestService(t)
	_, err := client.Allocate(context.Background(), AllocationRequest{N: 0})
	var apiErr *APIError
	if err == nil || !asErr(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("err = %v, want 400", err)
	}
	if IsNoCapacity(err) {
		t.Error("bad request misclassified as capacity rejection")
	}
}

func asErr(err error, target **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestReleaseUnknownIs404(t *testing.T) {
	client, _ := newTestService(t)
	err := client.Release(context.Background(), 999)
	var apiErr *APIError
	if err == nil || !asErr(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("err = %v, want 404", err)
	}
}

func TestDeterministicAndHeteroRequests(t *testing.T) {
	client, _ := newTestService(t)
	ctx := context.Background()

	det, err := client.Allocate(ctx, AllocationRequest{N: 4, Bandwidth: 250})
	if err != nil {
		t.Fatalf("deterministic Allocate: %v", err)
	}
	if det.VMs != 4 {
		t.Errorf("det VMs = %d", det.VMs)
	}

	hetero, err := client.Allocate(ctx, AllocationRequest{Demands: []DemandSpec{
		{Mu: 400, Sigma: 100}, {Mu: 100, Sigma: 20}, {Mu: 150},
	}})
	if err != nil {
		t.Fatalf("hetero Allocate: %v", err)
	}
	if hetero.VMs != 3 {
		t.Errorf("hetero VMs = %d", hetero.VMs)
	}
	// Heterogeneous placements must carry VM indices.
	seen := 0
	for _, e := range hetero.Placement {
		seen += len(e.VMs)
	}
	if seen != 3 {
		t.Errorf("hetero placement lists %d VM indices", seen)
	}
}

func TestDryRun(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	ok, err := client.DryRun(ctx, AllocationRequest{N: 6, Mu: 100, Sigma: 10})
	if err != nil || !ok {
		t.Errorf("DryRun feasible = %v, %v", ok, err)
	}
	ok, err = client.DryRun(ctx, AllocationRequest{N: 500, Mu: 100})
	if err != nil || ok {
		t.Errorf("DryRun oversized = %v, %v", ok, err)
	}
	if got := mgr.Running(); got != 0 {
		t.Errorf("dry runs admitted jobs: %d", got)
	}
}

func TestLinksEndpoint(t *testing.T) {
	client, _ := newTestService(t)
	ctx := context.Background()
	if _, err := client.Allocate(ctx, AllocationRequest{N: 10, Mu: 300, Sigma: 100}); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	links, err := client.Links(ctx, 0)
	if err != nil {
		t.Fatalf("Links: %v", err)
	}
	if len(links) != 11 { // 8 machines + 2 ToRs + 1 aggregation uplink
		t.Errorf("links = %d, want 11", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i].Occupancy > links[i-1].Occupancy {
			t.Error("links not sorted by occupancy")
			break
		}
	}
	top, err := client.Links(ctx, 3)
	if err != nil {
		t.Fatalf("Links(3): %v", err)
	}
	if len(top) != 3 {
		t.Errorf("limited links = %d, want 3", len(top))
	}
	if top[0].Occupancy <= 0 {
		t.Error("most loaded link shows zero occupancy while a job runs")
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	client, _ := newTestService(t)
	resp, err := http.Post(client.Endpoint()+"/v1/allocations", "application/json",
		strings.NewReader(`{"n": 3, "unknownField": true}`))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}

	// POST /v1/fence decodes as strictly as every other body: a field it
	// does not know is refused before the fence seam is reached.
	_, mgr := newTestService(t)
	api := NewServer(mgr)
	api.Swap(Wiring{Controller: mgr, Fence: func(uint64) error {
		t.Error("fence seam reached with a malformed body")
		return nil
	}})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	fresp, err := http.Post(srv.URL+"/v1/fence", "application/json",
		strings.NewReader(`{"epoch": 3, "force": true}`))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusBadRequest {
		t.Errorf("fence with an unknown field: status = %d, want 400", fresp.StatusCode)
	}
}

func TestBadLimitIs400(t *testing.T) {
	client, _ := newTestService(t)
	resp, err := http.Get(client.Endpoint() + "/v1/links?limit=banana")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentClients hammers the service from several goroutines; the
// manager must keep its accounting exact.
func TestConcurrentClients(t *testing.T) {
	client, mgr := newTestService(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				resp, err := client.Allocate(ctx, AllocationRequest{N: 2, Mu: 50, Sigma: 10})
				if err != nil {
					if IsNoCapacity(err) {
						continue
					}
					t.Errorf("Allocate: %v", err)
					return
				}
				if err := client.Release(ctx, resp.ID); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := mgr.Running(); got != 0 {
		t.Errorf("Running after churn = %d", got)
	}
	if got := mgr.FreeSlots(); got != 32 {
		t.Errorf("FreeSlots after churn = %d, want 32", got)
	}
}

func TestAPIErrorFormatting(t *testing.T) {
	e := &APIError{StatusCode: 409, Message: "full"}
	if got := e.Error(); !strings.Contains(got, "409") || !strings.Contains(got, "full") {
		t.Errorf("Error = %q", got)
	}
	if IsNoCapacity(nil) {
		t.Error("nil classified as capacity error")
	}
}

func TestNewClientDefaultsHTTPClient(t *testing.T) {
	c := NewClient("http://example.invalid", nil)
	if c.hc == nil {
		t.Error("nil http client not defaulted")
	}
}

func TestHeadroomEndpoint(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	fits, err := client.Headroom(ctx, HeadroomRequest{N: 4, Mu: 100, Sigma: 20})
	if err != nil {
		t.Fatalf("Headroom: %v", err)
	}
	if fits != 8 { // 32 slots / 4 VMs, bandwidth loose
		t.Errorf("fits = %d, want 8", fits)
	}
	if got := mgr.Running(); got != 0 {
		t.Errorf("headroom admitted jobs: %d", got)
	}
	if _, err := client.Headroom(ctx, HeadroomRequest{N: 0}); err == nil {
		t.Error("invalid headroom request accepted")
	}
	capped, err := client.Headroom(ctx, HeadroomRequest{N: 4, Mu: 100, Limit: 3})
	if err != nil || capped != 3 {
		t.Errorf("capped = %d, %v; want 3", capped, err)
	}
}

// TestStatusReportsAdmissionAndWAL: /v1/status must surface the admission
// counters, and the WAL section when a provider is installed (absent
// otherwise, so in-memory daemons don't show a fake log).
func TestStatusReportsAdmissionAndWAL(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.WAL != nil {
		t.Errorf("WAL section present without a provider: %+v", st.WAL)
	}
	if st.Admission == nil {
		t.Fatal("status has no admission section")
	}
	if st.Admission.Locked != 0 || st.Admission.Plans != 0 {
		t.Errorf("fresh manager reports admissions: %+v", st.Admission)
	}

	if _, err := client.Allocate(ctx, AllocationRequest{N: 4, Mu: 100, Sigma: 40}); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if st, err = client.Status(ctx); err != nil {
		t.Fatalf("Status: %v", err)
	}
	adm := st.Admission
	if adm == nil || adm.Locked != 1 {
		t.Errorf("admission counters after one admission = %+v", adm)
	}
	if adm != nil && (adm.Plans < 1 || adm.MeanPlanMs <= 0) {
		t.Errorf("plan latency not recorded: %+v", adm)
	}

	// A second server over the same manager with a WAL provider installed.
	api := NewServer(mgr)
	api.Swap(Wiring{Controller: mgr, WALStatus: func() WALStatus {
		return WALStatus{Gen: 3, Appended: 7, Batches: 4, Records: 7, MaxBatch: 3, MeanBatch: 1.75}
	}})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	st, err = NewClient(srv.URL, srv.Client()).Status(ctx)
	if err != nil {
		t.Fatalf("Status (wal): %v", err)
	}
	if st.WAL == nil || st.WAL.Gen != 3 || st.WAL.MaxBatch != 3 || st.WAL.MeanBatch != 1.75 {
		t.Errorf("WAL section = %+v, want the injected values", st.WAL)
	}
}

// statusKeys is the golden key set of GET /v1/status: every key any
// section can carry, as dotted paths in wire order. Adding, renaming,
// or removing a status field must show up as a diff of this list.
var statusKeys = []string{
	"machines", "totalSlots", "freeSlots", "runningJobs", "maxOccupancy",
	"epsilon", "machinesDown", "linksDown", "degradedJobs",
	"admission.fastPath", "admission.revalidated", "admission.conflicts",
	"admission.retries", "admission.fallbacks", "admission.locked",
	"admission.plans", "admission.meanPlanMillis",
	"admission.planCacheHits", "admission.planCacheMisses",
	"admission.planCacheInvalidations", "admission.planCacheEvictions",
	"wal.gen", "wal.appended", "wal.batches", "wal.records", "wal.maxBatch", "wal.meanBatch",
	"replication.role", "replication.epoch", "replication.gen",
	"replication.applied_off", "replication.durable_off",
	"replication.lag_bytes", "replication.lag_records", "replication.version",
	"sharding.shards",
	"sharding.pods.shard", "sharding.pods.root", "sharding.pods.jobs",
	"sharding.pods.freeSlots", "sharding.pods.maxOccupancy",
}

// TestStatusKeySetGolden pins the status wire shape: handleStatus
// encodes one Status value, so the type's JSON tags are the wire keys,
// and they must spell exactly statusKeys.
func TestStatusKeySetGolden(t *testing.T) {
	var tags []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			tags = append(tags, prefix)
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			walk(strings.TrimPrefix(prefix+"."+name, "."), typ.Field(i).Type)
		}
	}
	walk("", reflect.TypeOf(Status{}))
	if !reflect.DeepEqual(tags, statusKeys) {
		t.Errorf("Status JSON tags:\n got %q\nwant %q", tags, statusKeys)
	}
}

// TestStatusReportsPlanCache checks that the admission section's
// plan-cache counters move with repeated demand shapes.
func TestStatusReportsPlanCache(t *testing.T) {
	client, _ := newTestService(t)
	ctx := context.Background()

	// Three identical shapes: the first plan runs cold, the second builds
	// the DP table entry (the cache admits a shape on second sight), the
	// third reuses it.
	for i := 0; i < 3; i++ {
		if _, err := client.Allocate(ctx, AllocationRequest{N: 3, Mu: 100, Sigma: 40}); err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
	}
	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	adm := st.Admission
	if adm == nil {
		t.Fatal("status has no admission section")
	}
	if adm.PlanCacheMisses < 1 || adm.PlanCacheHits < 1 {
		t.Errorf("plan-cache counters not surfaced: %+v", adm)
	}
}
