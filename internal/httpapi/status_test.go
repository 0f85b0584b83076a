package httpapi

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// failing is a controller whose every mutator, and Headroom, fails with
// err; the rest is the manager it embeds.
type failing struct {
	Controller
	err error
}

func (f failing) AllocateHomog(core.Homogeneous, ...core.CallOption) (*core.Allocation, error) {
	return nil, f.err
}
func (f failing) Release(core.JobID, ...core.CallOption) error          { return f.err }
func (f failing) Headroom(core.Homogeneous, int) (int, error)           { return 0, f.err }
func (f failing) RepairJob(core.JobID) (core.RepairResult, error)       { return core.RepairResult{}, f.err }
func (f failing) RepairAll() ([]core.RepairResult, error)               { return nil, f.err }
func (f failing) RestoreLink(topology.LinkID, ...core.CallOption) error { return f.err }
func (f failing) FailMachine(topology.NodeID, ...core.CallOption) ([]core.JobID, error) {
	return nil, f.err
}

// TestStatusOfTable: one row per sentinel per endpoint. Every endpoint
// answers a controller's error with the status statusOf gives its
// sentinel, wrapped or not, and the error's text in the body. The cells
// the parent commit's five hand-written ladders also had are unchanged
// (allocate: no-capacity, idem-conflict 409, bad-request 400, journal 503;
// release: unknown-job 404, idem-conflict 409, journal 503; fault, repair
// all: journal 503; repair one: unknown-job 404, journal 503; anything
// else 500). The cells that moved were 500s for errors the endpoint had no
// arm for: a sharded node's cross-pod repair (now 409, the fix), Headroom's
// unconditional 500, and combinations no controller produces.
func TestStatusOfTable(t *testing.T) {
	mgr, err := core.NewManager(failoverTopo(t), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	machine := int(mgr.Topology().Machines()[0])
	endpoints := []struct{ name, method, path, body string }{
		{"allocate", "POST", "/v1/allocations", `{"n":2,"mu":10,"sigma":2}`},
		{"release", "DELETE", "/v1/allocations/7", ""},
		{"headroom", "POST", "/v1/headroom", `{"n":2,"mu":10,"sigma":2}`},
		{"fault", "POST", "/v1/faults", fmt.Sprintf(`{"machine":%d}`, machine)},
		{"restore link", "POST", "/v1/faults", fmt.Sprintf(`{"link":%d,"restore":true}`, machine)},
		{"repair one", "POST", "/v1/repairs", `{"job":7}`},
		{"repair all", "POST", "/v1/repairs", `{}`},
	}
	sentinels := []struct {
		err  error
		want int
	}{
		{core.ErrNoCapacity, http.StatusConflict},
		{core.ErrIdemConflict, http.StatusConflict},
		{core.ErrBadRequest, http.StatusBadRequest},
		{core.ErrUnknownJob, http.StatusNotFound},
		{core.ErrJournal, http.StatusServiceUnavailable},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, ep := range endpoints {
		for _, s := range sentinels {
			for _, cause := range []error{s.err, fmt.Errorf("shard: pod 3: %w: job 7", s.err)} {
				srv := NewControllerServer(failing{Controller: mgr, err: cause})
				req := httptest.NewRequest(ep.method, ep.path, strings.NewReader(ep.body))
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				body, _ := io.ReadAll(rec.Body)
				if rec.Code != s.want || !strings.Contains(string(body), cause.Error()) {
					t.Errorf("%s failing with %q: status %d body %s, want %d with the reason", ep.name, cause, rec.Code, body, s.want)
				}
			}
		}
	}

	// A body that does not decode is the client's error on every endpoint
	// that reads one, under the text it always had.
	srv := NewControllerServer(mgr)
	for _, ep := range endpoints {
		if ep.body == "" {
			continue
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(ep.method, ep.path, strings.NewReader(`{"nope":`)))
		if body := rec.Body.String(); rec.Code != http.StatusBadRequest || !strings.Contains(body, `"decode request: `) {
			t.Errorf("%s with a truncated body: status %d body %s, want 400 decode request: ...", ep.name, rec.Code, body)
		}
	}
}
