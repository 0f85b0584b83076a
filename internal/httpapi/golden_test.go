package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/state (only ever from the commit the files are meant to pin)")

// goldenHistory drives one fixed history through the HTTP API on a small
// two-rack datacenter: rack B (five 100 Mbps machines, two slots each)
// before rack A (50, 50 and 30 Mbps, two slots each, behind a 25 Mbps
// uplink — core's degraded repair fixture). It admits, each on one machine
// and so without contributions, a keyed deterministic job and a small
// homogeneous one; a keyed heterogeneous job; and a homogeneous job that
// fits neither what is left of rack B nor one machine, so it splits 2+2
// over rack A. It repairs the unaffected heterogeneous job (noop); fails a
// machine under the split job, which no admissible placement can take
// (degraded); releases the small job under a key; fails a machine under the
// heterogeneous job and repairs it into free slots (moved); fails and
// restores the freed machine's link; restores the second failed machine;
// and admits a deterministic job over several machines. The clock is faked (5 ms a read), so the repair
// latencies are part of the history.
func goldenHistory(t *testing.T) (*core.Manager, *httptest.Server) {
	t.Helper()
	ticks := 0
	base := time.Unix(1700000000, 0)
	t.Cleanup(core.SetClockForTesting(func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * 5 * time.Millisecond)
	}))

	machine := func(cap float64) topology.Spec { return topology.Spec{UpCap: cap, Slots: 2} }
	topo, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{
		{UpCap: 400, Children: []topology.Spec{machine(100), machine(100), machine(100), machine(100), machine(100)}},
		{UpCap: 25, Children: []topology.Spec{machine(50), machine(50), machine(30)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	admit := func(req AllocationRequest, key string) AllocationResponse {
		t.Helper()
		var opts []ReqOption
		if key != "" {
			opts = append(opts, WithIdempotencyKey(key))
		}
		resp, err := client.Allocate(ctx, req, opts...)
		if err != nil {
			t.Fatalf("admit %+v: %v", req, err)
		}
		return resp
	}
	failAndRepair := func(machine int, job int64, want string) {
		t.Helper()
		if _, err := client.Fault(ctx, FaultRequest{Machine: &machine}); err != nil {
			t.Fatalf("fail machine %d: %v", machine, err)
		}
		res, err := client.Repair(ctx, job)
		if err != nil || res.Outcome != want {
			t.Fatalf("repair of job %d = %+v, %v; the history needs outcome %q", job, res, err, want)
		}
	}

	det := admit(AllocationRequest{N: 2, Bandwidth: 40}, "golden-det")
	small := admit(AllocationRequest{N: 2, Mu: 5, Sigma: 1}, "")
	if len(det.Placement) != 1 || len(small.Placement) != 1 {
		t.Fatalf("the first two jobs must fit one machine each, got %+v and %+v", det, small)
	}
	hetero := admit(AllocationRequest{Demands: []DemandSpec{
		{Mu: 30, Sigma: 10}, {Mu: 10, Sigma: 2}, {Mu: 20, Sigma: 5}, {Mu: 25},
	}}, "golden-hetero")
	homog := admit(AllocationRequest{N: 4, Mu: 20, Sigma: 5}, "")

	if res, err := client.Repair(ctx, hetero.ID); err != nil || res.Outcome != "noop" {
		t.Fatalf("repair of the unaffected job = %+v, %v", res, err)
	}
	failAndRepair(homog.Placement[0].Machine, homog.ID, "degraded")
	if err := client.Release(ctx, small.ID, WithIdempotencyKey("golden-release")); err != nil {
		t.Fatalf("keyed release: %v", err)
	}
	failAndRepair(hetero.Placement[0].Machine, hetero.ID, "moved")
	link := small.Placement[0].Machine
	if _, err := client.Fault(ctx, FaultRequest{Link: &link}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fault(ctx, FaultRequest{Link: &link, Restore: true}); err != nil {
		t.Fatal(err)
	}
	back := hetero.Placement[0].Machine
	if _, err := client.Fault(ctx, FaultRequest{Machine: &back, Restore: true}); err != nil {
		t.Fatal(err)
	}
	if spread := admit(AllocationRequest{N: 3, Bandwidth: 10}, ""); len(spread.Placement) < 2 {
		t.Fatalf("the last job must cross links, got %+v", spread)
	}
	return mgr, ts
}

// TestStateAndFailuresBodiesGolden pins the bodies of GET /v1/state and
// GET /v1/failures (zeros printed) byte for byte for goldenHistory. The
// files in testdata/state were written by commit ccb276f, when core still
// kept contributions, placements, idempotency bindings and fault counters
// in internal twins of the exported types and copied between them field by
// field; svcbench's goldens, `svcwal state`, a standby's promotion check
// and operators' scripts read these bytes, so they must not be regenerated
// to follow a change in the code. state.json was re-pinned once, when
// exported jobs stopped carrying their derived contributions: at 646ec90,
// with every job's Contribs nil, the body is exactly these bytes.
func TestStateAndFailuresBodiesGolden(t *testing.T) {
	_, ts := goldenHistory(t)
	for _, name := range []string{"state", "failures"} {
		resp, err := http.Get(ts.URL + "/v1/" + name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/%s: status %d, err %v", name, resp.StatusCode, err)
		}
		path := filepath.Join("testdata", "state", name+".json")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET /v1/%s body differs from the golden:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestStateJSONRoundTrip: the state of goldenHistory — which holds a
// degraded job, alloc and release bindings and non-zero counters —
// survives ExportState -> JSON -> NewManagerFromState
// -> ExportState unchanged, to ManagerState.Equal and to reflect.DeepEqual
// (so nil-for-empty is kept on both sides of the trip).
func TestStateJSONRoundTrip(t *testing.T) {
	mgr, _ := goldenHistory(t)
	want := mgr.ExportState()
	if len(want.Idem) < 3 || want.Counters == (core.CounterState{}) {
		t.Fatalf("the history lost what this test is about: %+v", want)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.ManagerState
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.NewManagerFromState(mgr.Topology(), mgr.Epsilon(), &decoded)
	if err != nil {
		t.Fatalf("NewManagerFromState: %v", err)
	}
	got := rebuilt.ExportState()
	if !got.Equal(want) || !want.Equal(got) {
		t.Errorf("the rebuilt manager's state is not Equal to the original")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the rebuilt manager's state differs:\n got %+v\nwant %+v", got, want)
	}
}
