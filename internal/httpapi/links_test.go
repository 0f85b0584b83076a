package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// fakeLinks is a Controller that answers LinkLoads and nothing else: its
// embedded interface is nil, so any other method the handler reached would
// panic. It hands out one reused slice, so what a request allocates is the
// handler's own.
type fakeLinks struct {
	Controller
	loads, scratch []core.LinkLoad
	calls          int
}

func (f *fakeLinks) LinkLoads() []core.LinkLoad {
	f.calls++
	f.scratch = append(f.scratch[:0], f.loads...)
	return f.scratch
}

// newFakeLinks has n links in four occupancy classes, so every class is a
// long run of ties.
func newFakeLinks(n int) *fakeLinks {
	f := &fakeLinks{scratch: make([]core.LinkLoad, 0, n)}
	for i := 1; i <= n; i++ {
		f.loads = append(f.loads, core.LinkLoad{Link: topology.LinkID(i), Capacity: 1000, Occupancy: float64(i%4) / 4})
	}
	return f
}

func getLinks(t *testing.T, h http.Handler, query string) (int, []LinkStatus, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/links"+query, nil))
	var out []LinkStatus
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET /v1/links%s: %v in %q", query, err, rec.Body.String())
		}
	}
	return rec.Code, out, rec.Body.String()
}

// TestLinksTotalOrder pins the order of GET /v1/links — occupancy
// descending, equal occupancies by ascending link id — and what limit
// selects from it.
func TestLinksTotalOrder(t *testing.T) {
	const n = 41
	h := NewControllerServer(newFakeLinks(n)).Handler()
	_, all, _ := getLinks(t, h, "")
	if len(all) != n {
		t.Fatalf("no limit: %d links, want %d", len(all), n)
	}
	for i := 1; i < n; i++ {
		a, b := all[i-1], all[i]
		if a.Occupancy < b.Occupancy || (a.Occupancy == b.Occupancy && a.Link >= b.Link) {
			t.Fatalf("links %d and %d out of order: %+v before %+v", i-1, i, a, b)
		}
	}
	for _, limit := range []int{0, 1, 10, n - 1, n, n + 5} {
		_, got, body := getLinks(t, h, fmt.Sprintf("?limit=%d", limit))
		want := all[:min(limit, n)]
		if len(got) != len(want) {
			t.Fatalf("limit=%d: %d links, want %d", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit=%d: link %d = %+v, want %+v (the prefix of the full order)", limit, i, got[i], want[i])
			}
		}
		if limit == 0 && body != "[]\n" {
			t.Errorf("limit=0: body %q, want []", body)
		}
	}
}

// TestLinksStableAcrossCalls: one state has one answer, on a fake full of
// ties and on an empty (wholly symmetric) datacenter.
func TestLinksStableAcrossCalls(t *testing.T) {
	_, mgr := newTestService(t)
	for name, h := range map[string]http.Handler{
		"fake":    NewControllerServer(newFakeLinks(200)).Handler(),
		"manager": NewServer(mgr).Handler(),
	} {
		_, _, first := getLinks(t, h, "?limit=10")
		for i := 0; i < 100; i++ {
			if _, _, body := getLinks(t, h, "?limit=10"); body != first {
				t.Fatalf("%s: call %d answered %q, the first %q", name, i, body, first)
			}
		}
	}
}

// TestLinksBadLimitReadsNothing: a malformed or negative limit is a 400
// before any controller method is called.
func TestLinksBadLimitReadsNothing(t *testing.T) {
	f := newFakeLinks(10)
	h := NewControllerServer(f).Handler()
	for _, q := range []string{"?limit=banana", "?limit=-1", "?limit=1.5"} {
		if code, _, _ := getLinks(t, h, q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
	if f.calls != 0 {
		t.Errorf("LinkLoads called %d times for refused requests, want 0", f.calls)
	}
}

// TestLinksTopKAllocatesNoFullSlice: answering limit=10 of 4000 links
// allocates far less than one slice of 4000 entries (160 KB) — the top is
// selected inside the slice the controller returned.
func TestLinksTopKAllocatesNoFullSlice(t *testing.T) {
	const n = 4000
	h := NewControllerServer(newFakeLinks(n)).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/links?limit=10", nil)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 16<<10 {
		t.Errorf("GET /v1/links?limit=10 over %d links allocates %d B per call, want < 16 KB", n, got)
	}
}
