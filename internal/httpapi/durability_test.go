package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestIdempotencyKeyReplaysAllocation: repeating an allocate with the
// same Idempotency-Key returns the original placement without reserving
// twice; reusing the key for a release conflicts with 409.
func TestIdempotencyKeyReplaysAllocation(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	req := AllocationRequest{N: 4, Mu: 100, Sigma: 40}

	first, err := client.Allocate(ctx, req, WithIdempotencyKey("tenant-42/req-1"))
	if err != nil {
		t.Fatalf("first allocate: %v", err)
	}
	again, err := client.Allocate(ctx, req, WithIdempotencyKey("tenant-42/req-1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if again.ID != first.ID {
		t.Errorf("replay returned job %d, want %d", again.ID, first.ID)
	}
	if mgr.Running() != 1 {
		t.Errorf("running = %d after replay, want 1", mgr.Running())
	}

	err = client.Release(ctx, first.ID+999, WithIdempotencyKey("tenant-42/req-1"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("key reuse across ops = %v, want 409", err)
	}
}

// TestFaultUnderForeignKeyConflicts: POST /v1/faults under a key another
// op committed is refused with 409 and applies nothing — the key of an
// allocation, and the key of the fail carried by its restore (both were
// answered 200 and skipped before core.IdemTable). The same fault op on a
// different machine still replays: a binding stores the op, not the target.
func TestFaultUnderForeignKeyConflicts(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	if _, err := client.Allocate(ctx, AllocationRequest{N: 2, Mu: 50}, WithIdempotencyKey("alloc-1")); err != nil {
		t.Fatal(err)
	}
	mc, other := int(mgr.Topology().Machines()[0]), int(mgr.Topology().Machines()[1])
	conflict := func(step string, err error) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
			t.Errorf("%s = %v, want 409", step, err)
		}
	}
	_, err := client.Fault(ctx, FaultRequest{Machine: &mc}, WithIdempotencyKey("alloc-1"))
	conflict("fault under an allocation's key", err)
	if _, err := client.Fault(ctx, FaultRequest{Machine: &mc}, WithIdempotencyKey("fail-1")); err != nil {
		t.Fatalf("fault: %v", err)
	}
	_, err = client.Fault(ctx, FaultRequest{Machine: &mc, Restore: true}, WithIdempotencyKey("fail-1"))
	conflict("restore under its fail's key", err)
	if _, err := client.Fault(ctx, FaultRequest{Machine: &other}, WithIdempotencyKey("fail-1")); err != nil {
		t.Fatalf("same op, other machine: %v", err)
	}
	st, err := client.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MachineFailures != 1 || st.MachineRestores != 0 || st.MachinesDown != 1 {
		t.Errorf("after two refused calls and one replay: %+v, want one failure, no restore, one machine down", st)
	}
}

// TestIdempotencyKeyOnReleaseAndFault: keyed release repeats succeed;
// keyed fault repeats do not double-count.
func TestIdempotencyKeyOnReleaseAndFault(t *testing.T) {
	client, mgr := newTestService(t)
	ctx := context.Background()
	resp, err := client.Allocate(ctx, AllocationRequest{N: 2, Mu: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Release(ctx, resp.ID, WithIdempotencyKey("rel-1")); err != nil {
		t.Fatalf("first release: %v", err)
	}
	if err := client.Release(ctx, resp.ID, WithIdempotencyKey("rel-1")); err != nil {
		t.Fatalf("replayed release: %v", err)
	}

	mc := int(mgr.Topology().Machines()[0])
	if _, err := client.Fault(ctx, FaultRequest{Machine: &mc}, WithIdempotencyKey("fault-1")); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if _, err := client.Fault(ctx, FaultRequest{Machine: &mc, Restore: true}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := client.Fault(ctx, FaultRequest{Machine: &mc}, WithIdempotencyKey("fault-1")); err != nil {
		t.Fatalf("replayed fault: %v", err)
	}
	st, err := client.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.MachineFailures != 1 || st.MachinesDown != 0 {
		t.Errorf("replayed fault re-executed: %+v", st)
	}
}

// TestDrainingRefusesMutations: drain mode turns away non-GET requests
// with 503 + Retry-After while reads keep working.
func TestDrainingRefusesMutations(t *testing.T) {
	topoClient, mgr := newTestService(t)
	_ = topoClient
	api := NewServer(mgr)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	api.SetDraining(true)

	resp, err := http.Post(srv.URL+"/v1/allocations", "application/json",
		strings.NewReader(`{"n":1,"mu":10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining allocate status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining response missing Retry-After")
	}

	get, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Errorf("draining status read = %d, want 200", get.StatusCode)
	}

	api.SetDraining(false)
	resp2, err := http.Post(srv.URL+"/v1/allocations", "application/json",
		strings.NewReader(`{"n":1,"mu":10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Errorf("post-drain allocate status = %d, want 201", resp2.StatusCode)
	}
}

// TestOversizedBodyIs413: bodies beyond the server's cap are refused
// without reading them in.
func TestOversizedBodyIs413(t *testing.T) {
	_, mgr := newTestService(t)
	api := NewServer(mgr)
	api.Swap(Wiring{Controller: mgr, Fence: func(uint64) error { return nil }})
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)

	// Valid JSON that only overruns the cap partway through, so the
	// decoder is actively reading when MaxBytesReader trips.
	var big bytes.Buffer
	big.WriteString(`{"demands":[{"mu":1}`)
	for big.Len() < maxBodyBytes+1024 {
		big.WriteString(`,{"mu":1}`)
	}
	big.WriteString(`]}`)
	resp, err := http.Post(srv.URL+"/v1/allocations", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// The fence endpoint shares the decoder: padding that overruns the
	// cap before the value arrives is a 413 there too, not a 400.
	pad := `{"epoch":` + strings.Repeat(" ", maxBodyBytes+1024) + `3}`
	resp, err = http.Post(srv.URL+"/v1/fence", "application/json", strings.NewReader(pad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized fence body status = %d, want 413", resp.StatusCode)
	}
}

// flakyHandler fails the first n requests with the given status, then
// delegates to the real handler.
type flakyHandler struct {
	inner      http.Handler
	remaining  atomic.Int64
	status     int
	retryAfter string
	seen       atomic.Int64
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.seen.Add(1)
	if f.remaining.Add(-1) >= 0 {
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		w.WriteHeader(f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func newFlakyService(t *testing.T, failures int, status string) (*flakyHandler, *httptest.Server) {
	t.Helper()
	_, mgr := newTestService(t)
	code := http.StatusServiceUnavailable
	switch status {
	case "500":
		code = http.StatusInternalServerError
	case "502":
		code = http.StatusBadGateway
	}
	fh := &flakyHandler{inner: NewServer(mgr).Handler(), status: code}
	fh.remaining.Store(int64(failures))
	srv := httptest.NewServer(fh)
	t.Cleanup(srv.Close)
	return fh, srv
}

// TestClientRetriesIdempotentRequests: GETs and keyed mutations retry
// through transient 5xx; the retried allocate commits exactly once.
func TestClientRetriesIdempotentRequests(t *testing.T) {
	fh, srv := newFlakyService(t, 2, "503")
	client := NewClient(srv.URL, srv.Client(),
		WithRetries(3), WithBackoff(time.Millisecond, 5*time.Millisecond))

	if _, err := client.Status(context.Background()); err != nil {
		t.Fatalf("GET through flaky server: %v", err)
	}
	if got := fh.seen.Load(); got != 3 {
		t.Errorf("GET attempts = %d, want 3", got)
	}

	fh.remaining.Store(2)
	resp, err := client.Allocate(context.Background(),
		AllocationRequest{N: 2, Mu: 50}, WithIdempotencyKey("retry-1"))
	if err != nil {
		t.Fatalf("keyed allocate through flaky server: %v", err)
	}
	if resp.VMs != 2 {
		t.Errorf("allocate response = %+v", resp)
	}
}

// TestClientDoesNotRetryUnkeyedMutations: an allocate without a key must
// fail on the first 5xx — retrying could double-reserve.
func TestClientDoesNotRetryUnkeyedMutations(t *testing.T) {
	fh, srv := newFlakyService(t, 1, "500")
	client := NewClient(srv.URL, srv.Client(),
		WithRetries(5), WithBackoff(time.Millisecond, 5*time.Millisecond))

	_, err := client.Allocate(context.Background(), AllocationRequest{N: 1, Mu: 10})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unkeyed allocate = %v, want the raw 500", err)
	}
	if got := fh.seen.Load(); got != 1 {
		t.Errorf("unkeyed allocate attempts = %d, want 1", got)
	}
}

// TestClientDoesNotRetryPermanentErrors: 4xx responses are final.
func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	_, mgr := newTestService(t)
	var seen atomic.Int64
	inner := NewServer(mgr).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client(),
		WithRetries(5), WithBackoff(time.Millisecond, 5*time.Millisecond))

	_, err := client.Allocate(context.Background(),
		AllocationRequest{N: 0, Mu: -3}, WithIdempotencyKey("bad"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request = %v, want 400", err)
	}
	if got := seen.Load(); got != 1 {
		t.Errorf("400 was retried: %d attempts", got)
	}
}

// TestClientRetryHonorsContext: cancellation stops the retry loop
// promptly instead of sleeping through the backoff schedule.
func TestClientRetryHonorsContext(t *testing.T) {
	_, srv := newFlakyService(t, 1000, "502")
	client := NewClient(srv.URL, srv.Client(),
		WithRetries(1000), WithBackoff(50*time.Millisecond, time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Status(ctx)
	if err == nil {
		t.Fatal("Status succeeded against an always-failing server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop ignored context for %v", elapsed)
	}
}

// TestClientRequestTimeout: an http.Client Timeout bounds each attempt
// (one Do is one attempt), so one hung response does not consume the
// whole retry budget.
func TestClientRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"machines":1,"totalSlots":1,"freeSlots":1,"runningJobs":0,"maxOccupancy":0,"epsilon":0.05}`))
	}))
	t.Cleanup(func() { close(release); srv.Close() })

	hc := &http.Client{Timeout: 50 * time.Millisecond, Transport: srv.Client().Transport}
	client := NewClient(srv.URL, hc,
		WithRetries(2), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if _, err := client.Status(context.Background()); err != nil {
		t.Fatalf("Status with per-attempt timeout: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (one hung, one served)", got)
	}
}

// TestJournalErrorSurfacesAs503: when the journal vetoes a mutation the
// API reports 503 so clients know to retry or fail over.
func TestJournalErrorSurfacesAs503(t *testing.T) {
	_, mgr := newTestService(t)
	mgr.SetJournal(brokenJournal{})
	srv := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client(), WithRetries(0))

	_, err := client.Allocate(context.Background(), AllocationRequest{N: 1, Mu: 10})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("journal failure = %v, want 503", err)
	}
}

type brokenJournal struct{}

func (brokenJournal) Commit(core.Mutation) error          { return errors.New("disk on fire") }
func (brokenJournal) Checkpoint(*core.ManagerState) error { return errors.New("disk on fire") }
