package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

func failoverTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 1, ToRsPerAgg: 2, MachinesPerRack: 4, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return topo
}

// TestClientRotatesOffDeadEndpoint: when the active endpoint refuses
// connections, a retryable request rotates to the alternate and succeeds.
func TestClientRotatesOffDeadEndpoint(t *testing.T) {
	ctx := context.Background()
	mgr, err := core.NewManager(failoverTopo(t), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(live.Close)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	c := NewClient(deadURL, nil,
		WithEndpoints(live.URL),
		WithRetries(3),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	if got := c.Endpoint(); got != deadURL {
		t.Fatalf("client starts at %s, want %s", got, deadURL)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("status across dead endpoint: %v", err)
	}
	if st.FreeSlots == 0 {
		t.Fatalf("implausible status: %+v", st)
	}
	// The rotation is sticky: the next request goes straight to the
	// survivor instead of re-probing the dead endpoint.
	if got := c.Endpoint(); got != live.URL {
		t.Fatalf("client stayed on %s, want rotation to %s", got, live.URL)
	}
}

// TestClientRotatesOn503OnlyWhenRetryable: a 503 from the active endpoint
// rotates keyed writes to the alternate; an unkeyed write must not be
// re-driven (it could double-apply) and surfaces the 503 unrotated.
func TestClientRotatesOn503OnlyWhenRetryable(t *testing.T) {
	ctx := context.Background()
	mgr, err := core.NewManager(failoverTopo(t), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(live.Close)

	var busyHits atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyHits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(busy.Close)

	keyed := NewClient(busy.URL, nil,
		WithEndpoints(live.URL),
		WithRetries(3),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	resp, err := keyed.Allocate(ctx, AllocationRequest{N: 2, Mu: 50, Sigma: 10},
		WithIdempotencyKey("rot-1"))
	if err != nil {
		t.Fatalf("keyed allocate across 503: %v", err)
	}
	if resp.VMs != 2 {
		t.Fatalf("allocate placed %d VMs, want 2", resp.VMs)
	}
	if busyHits.Load() != 1 {
		t.Fatalf("draining endpoint hit %d times, want 1 (rotate, not hammer)", busyHits.Load())
	}

	unkeyed := NewClient(busy.URL, nil,
		WithEndpoints(live.URL),
		WithRetries(3),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	_, err = unkeyed.Allocate(ctx, AllocationRequest{N: 1, Mu: 10})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unkeyed allocate: %v, want plain 503", err)
	}
	if got := unkeyed.Endpoint(); got != busy.URL {
		t.Fatalf("unkeyed failure rotated to %s; rotation must require a retry", got)
	}
}

// countingTransport counts the attempts a client makes.
type countingTransport struct {
	n  atomic.Int64
	rt http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.rt.RoundTrip(r)
}

// TestClientFirstPassIsFree: a call tries each endpoint once before it
// backs off. The backoff is ten seconds and the call has two, so a sleep
// on the first pass shows up as a deadline error, not as a slow test.
func TestClientFirstPassIsFree(t *testing.T) {
	mgr, err := core.NewManager(failoverTopo(t), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(live.Close)
	deadURL := func() string {
		s := httptest.NewServer(http.NotFoundHandler())
		s.Close()
		return s.URL
	}
	var standbyHits atomic.Int64
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		standbyHits.Add(1)
		w.Header().Set("Retry-After", "5")
		http.Error(w, `{"error":"standby: writes go to the primary"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(standby.Close)

	allocate := func(t *testing.T, first, second string) (*countingTransport, error) {
		t.Helper()
		ht := &http.Transport{}
		t.Cleanup(ht.CloseIdleConnections)
		tr := &countingTransport{rt: ht}
		c := NewClient(first, &http.Client{Transport: tr},
			WithEndpoints(second),
			WithRetries(3),
			WithBackoff(10*time.Second, 10*time.Second))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := c.Allocate(ctx, AllocationRequest{N: 2, Mu: 50, Sigma: 10},
			WithIdempotencyKey(t.Name()))
		if err != nil && ctx.Err() == nil {
			t.Fatalf("call ended before its deadline: %v", err)
		}
		return tr, err
	}

	t.Run("refused then answered", func(t *testing.T) {
		tr, err := allocate(t, deadURL(), live.URL)
		if err != nil {
			t.Fatalf("keyed allocate across a refused endpoint: %v", err)
		}
		if got := tr.n.Load(); got != 2 {
			t.Fatalf("%d attempts, want 2", got)
		}
	})
	t.Run("standby 503 with Retry-After then answered", func(t *testing.T) {
		tr, err := allocate(t, standby.URL, live.URL)
		if err != nil {
			t.Fatalf("keyed allocate across a standby's 503: %v", err)
		}
		if got, hits := tr.n.Load(), standbyHits.Load(); got != 2 || hits != 1 {
			t.Fatalf("%d attempts, %d on the standby; want 2 and 1", got, hits)
		}
	})
	t.Run("every endpoint refuses", func(t *testing.T) {
		tr, err := allocate(t, deadURL(), deadURL())
		if err == nil {
			t.Fatal("keyed allocate succeeded against two refusing endpoints")
		}
		// One attempt each, then the backoff outlasts the call.
		if got := tr.n.Load(); got != 2 {
			t.Fatalf("%d attempts before the deadline, want 2", got)
		}
	})
}

// TestClientHonorsRetryAfter: a Retry-After hint longer than the backoff
// schedule delays the retry by at least the hinted interval.
func TestClientHonorsRetryAfter(t *testing.T) {
	ctx := context.Background()
	var hits atomic.Int64
	var firstGap atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		firstGap.Store(int64(time.Since(start)))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"running_jobs":0,"free_slots":1}`))
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL, nil,
		WithRetries(2),
		WithBackoff(time.Millisecond, 2*time.Millisecond))
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("status: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
	if gap := time.Duration(firstGap.Load()); gap < time.Second {
		t.Fatalf("retry came %v after first attempt; Retry-After: 1 demands >= 1s", gap)
	}
}

// TestClientReplaysIdemKeyAcrossPrimarySwitch: an allocation acked by one
// primary, re-driven under its idempotency key after that primary dies,
// must return the original placement from the successor — not a second
// reservation.
func TestClientReplaysIdemKeyAcrossPrimarySwitch(t *testing.T) {
	ctx := context.Background()
	topo := failoverTopo(t)
	mgrA, err := core.NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(NewServer(mgrA).Handler())

	first, err := NewClient(primary.URL, nil).Allocate(ctx,
		AllocationRequest{N: 3, Mu: 80, Sigma: 20}, WithIdempotencyKey("switch-1"))
	if err != nil {
		t.Fatalf("allocate on first primary: %v", err)
	}

	// The successor starts from the primary's replicated state — the
	// idempotency table travels with it.
	mgrB, err := core.NewManagerFromState(topo, 0.05, mgrA.ExportState())
	if err != nil {
		t.Fatalf("NewManagerFromState: %v", err)
	}
	successor := httptest.NewServer(NewServer(mgrB).Handler())
	t.Cleanup(successor.Close)
	primaryURL := primary.URL
	primary.Close() // the first primary is gone for good

	c := NewClient(primaryURL, nil,
		WithEndpoints(successor.URL),
		WithRetries(3),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	again, err := c.Allocate(ctx, AllocationRequest{N: 3, Mu: 80, Sigma: 20},
		WithIdempotencyKey("switch-1"))
	if err != nil {
		t.Fatalf("re-driving acked allocation: %v", err)
	}
	if again.ID != first.ID {
		t.Fatalf("replay returned job %d, want original %d", again.ID, first.ID)
	}
	if len(again.Placement) != len(first.Placement) {
		t.Fatalf("replay placement %v, want original %v", again.Placement, first.Placement)
	}
	for i := range again.Placement {
		if again.Placement[i].Machine != first.Placement[i].Machine ||
			again.Placement[i].Count != first.Placement[i].Count {
			t.Fatalf("replay placement %v, want original %v", again.Placement, first.Placement)
		}
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunningJobs != 1 {
		t.Fatalf("successor runs %d jobs after replay, want 1 (no double allocation)", st.RunningJobs)
	}
}
