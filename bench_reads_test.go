package svc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/topology"
)

// BenchmarkReads times svcbench read-mix's three reads through the HTTP
// handler, in process, on the paper tree half full of the paper's job
// population:
//
//   - status: GET /v1/status (max occupancy, free slots, fault counts);
//   - links-10: GET /v1/links?limit=10, the ten most loaded links;
//   - dryrun: POST /v1/dryrun of the next request of the stream.
//
// One untimed admit, and a release when it was admitted, run between
// reads, as read-mix's writes do, so every read finds the paths they
// touched stale.
func BenchmarkReads(b *testing.B) {
	for _, cell := range []struct {
		name, method, path string
	}{
		{"status", http.MethodGet, "/v1/status"},
		{"links-10", http.MethodGet, "/v1/links?limit=10"},
		{"dryrun", http.MethodPost, "/v1/dryrun"},
	} {
		b.Run(cell.name, func(b *testing.B) {
			topo, err := topology.NewThreeTier(topology.PaperConfig())
			if err != nil {
				b.Fatal(err)
			}
			mgr, err := core.NewManager(topo, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			h := httpapi.NewServer(mgr).Handler()
			stream, next := paperStream(b, 4096), 0
			var held []core.JobID
			admit := func() bool {
				a, err := stream[next%len(stream)].admit(mgr)
				next++
				if err != nil && !errors.Is(err, core.ErrNoCapacity) {
					b.Fatal(err)
				}
				if a != nil {
					held = append(held, a.ID)
				}
				return a != nil
			}
			for mgr.FreeSlots() > topo.TotalSlots()/2 {
				admit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if admit() { // a rejected admit skips its release
					if err := mgr.Release(held[0]); err != nil {
						b.Fatal(err)
					}
					held = held[1:]
				}
				var body []byte
				if cell.method == http.MethodPost {
					body = wireRequest(b, stream[next%len(stream)])
				}
				req, rec := httptest.NewRequest(cell.method, cell.path, bytes.NewReader(body)), httptest.NewRecorder()
				b.StartTimer()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s %s: status %d: %s", cell.method, cell.path, rec.Code, rec.Body)
				}
			}
		})
	}
}

// wireRequest is r's /v1/dryrun body.
func wireRequest(b *testing.B, r streamReq) []byte {
	wire := httpapi.AllocationRequest{N: r.homog.N, Mu: r.homog.Demand.Mu, Sigma: r.homog.Demand.Sigma}
	if r.hetero.N() > 0 {
		wire = httpapi.AllocationRequest{}
		for _, d := range r.hetero.Demands {
			wire.Demands = append(wire.Demands, httpapi.DemandSpec{Mu: d.Mu, Sigma: d.Sigma})
		}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		b.Fatal(err)
	}
	return body
}
