package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// startTestStandby builds and starts an in-process standby following the
// given primary.
func startTestStandby(t *testing.T, primary *Daemon, stateDir string) *Daemon {
	return startNode(t, Config{StateDir: stateDir, Role: "standby", Follow: primary.URL()})
}

func waitForCatchUp(t *testing.T, c *httpapi.Client, wantVersion uint64) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status(ctx)
		if err == nil && st.Replication != nil &&
			st.Replication.LagBytes == 0 && st.Replication.Version >= wantVersion {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up (last status: %+v)", st.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStandbyFollowsAndRefusesWrites: a standby serves reads that track
// the primary and refuses writes with a retryable 503.
func TestStandbyFollowsAndRefusesWrites(t *testing.T) {
	ctx := context.Background()
	p := startTestDaemon(t, t.TempDir())
	defer shutdown(p)
	s := startTestStandby(t, p, t.TempDir())
	defer shutdown(s)

	pc := testClient(p)
	if _, err := pc.Allocate(ctx, httpapi.AllocationRequest{N: 3, Mu: 80, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	pst, err := pc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Replication == nil || pst.Replication.Role != "primary" {
		t.Fatalf("primary reports no replication role: %+v", pst.Replication)
	}

	sc := httpapi.NewClient(s.URL(), nil, httpapi.WithRetries(0))
	waitForCatchUp(t, sc, pst.Replication.Version)
	sst, err := sc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sst.Replication == nil || sst.Replication.Role != "standby" {
		t.Fatalf("standby reports role %+v", sst.Replication)
	}
	if sst.RunningJobs != pst.RunningJobs || sst.FreeSlots != pst.FreeSlots {
		t.Fatalf("standby reads diverge: %+v vs primary %+v", sst, pst)
	}

	// Writes on the standby are refused while it is not the primary.
	_, err = sc.Allocate(ctx, httpapi.AllocationRequest{N: 1, Mu: 10})
	if apiErr, ok := err.(*httpapi.APIError); !ok || apiErr.StatusCode != 503 {
		t.Fatalf("standby write: %v, want 503", err)
	}
}

// TestLoadedFailoverLosesNoAckedAdmission is the loaded end-to-end
// failover: keyed writers run against a failover-aware client while the
// primary drains, the standby promotes at the durable tail, and the old
// primary is killed abruptly. Every allocation a client saw acked —
// before the swap or after it — must exist on the new primary exactly
// once: none lost, none doubled. Meanwhile readers hammer the standby's
// GET /v1/status across the promotion: the surface is re-pointed in one
// store, so every answer is wholly a standby's (replication.role
// "standby", no wal section) or wholly a primary's (role "primary" with
// wal), never the new manager beside the follower's sections.
func TestLoadedFailoverLosesNoAckedAdmission(t *testing.T) {
	ctx := context.Background()
	p := startTestDaemon(t, t.TempDir())
	s := startTestStandby(t, p, t.TempDir())
	defer shutdown(s)

	primaryURL, standbyURL := p.URL(), s.URL()
	newFailoverClient := func() *httpapi.Client {
		return httpapi.NewClient(primaryURL, nil,
			httpapi.WithEndpoints(standbyURL),
			httpapi.WithRetries(30),
			httpapi.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	}

	baseline, err := testClient(p).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 8
	var mu sync.Mutex
	acked := make(map[string]int64) // idempotency key -> acked job ID
	var wg sync.WaitGroup
	half := make(chan struct{}) // closed when enough acks exist to fail over
	var once sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newFailoverClient()
			for k := 0; k < perWriter; k++ {
				key := fmt.Sprintf("fo-%d-%d", w, k)
				resp, err := c.Allocate(ctx, httpapi.AllocationRequest{N: 1, Mu: 5, Sigma: 1},
					httpapi.WithIdempotencyKey(key))
				if err != nil {
					t.Errorf("writer %d allocate %s: %v", w, key, err)
					return
				}
				mu.Lock()
				acked[key] = resp.ID
				n := len(acked)
				mu.Unlock()
				if n >= writers*perWriter/2 {
					once.Do(func() { close(half) })
				}
			}
		}(w)
	}

	var asStandby, asPrimary atomic.Int64
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				resp, err := http.Get(standbyURL + "/v1/status")
				if err != nil {
					t.Errorf("status: %v", err)
					return
				}
				var st struct {
					WAL         json.RawMessage `json:"wal"`
					Replication struct {
						Role string `json:"role"`
					} `json:"replication"`
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Errorf("status: %v", err)
					return
				case st.Replication.Role == "standby" && st.WAL == nil:
					asStandby.Add(1)
				case st.Replication.Role == "primary" && st.WAL != nil:
					asPrimary.Add(1)
				default:
					t.Errorf("status mixes two roles: replication.role %q, wal %s", st.Replication.Role, st.WAL)
					return
				}
			}
		}()
	}

	// Failover mid-load: drain the primary (in-flight writes finish and
	// ack; new ones bounce with a retryable 503), promote the standby at
	// the primary's durable tail, then kill the primary abruptly.
	<-half
	for deadline := time.Now().Add(5 * time.Second); asStandby.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	p.api.SetDraining(true)
	prom, err := httpapi.NewClient(standbyURL, nil).Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if prom.LagBytes != 0 || prom.LagRecords != 0 {
		t.Fatalf("promotion left replay lag: %+v", prom)
	}
	if prom.Epoch < 2 {
		t.Fatalf("promotion epoch %d, want >= 2", prom.Epoch)
	}
	p.Crash() // abrupt kill: no drain, no checkpoint, no journal close

	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); asPrimary.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stopReaders)
	readers.Wait()
	if asStandby.Load() == 0 || asPrimary.Load() == 0 {
		t.Errorf("readers saw %d standby and %d primary answers, want both sides of the swap",
			asStandby.Load(), asPrimary.Load())
	}
	if t.Failed() {
		return
	}

	// Every acked admission must exist on the new primary exactly once.
	// Re-driving each key must replay the original ID (not re-allocate),
	// and releasing each acked job must succeed; afterwards the
	// datacenter must be back to its baseline exactly.
	nc := httpapi.NewClient(standbyURL, nil, httpapi.WithRetries(2),
		httpapi.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	st, err := nc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunningJobs != baseline.RunningJobs+len(acked) {
		t.Fatalf("new primary runs %d jobs, want %d acked + %d baseline",
			st.RunningJobs, len(acked), baseline.RunningJobs)
	}
	for key, id := range acked {
		replay, err := nc.Allocate(ctx, httpapi.AllocationRequest{N: 1, Mu: 5, Sigma: 1},
			httpapi.WithIdempotencyKey(key))
		if err != nil {
			t.Fatalf("replaying key %s: %v", key, err)
		}
		if replay.ID != id {
			t.Fatalf("key %s replayed job %d, want acked %d", key, replay.ID, id)
		}
	}
	for key, id := range acked {
		if err := nc.Release(ctx, id); err != nil {
			t.Fatalf("acked admission %s (job %d) lost in failover: %v", key, id, err)
		}
	}
	final, err := nc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.RunningJobs != baseline.RunningJobs || final.FreeSlots != baseline.FreeSlots {
		t.Fatalf("after releasing every acked job: %+v, want baseline %+v (double allocation?)",
			final, baseline)
	}
}

// TestShutdownSkipsEmptyCheckpoint: a drain with nothing new in the log
// must not rotate the generation — an empty checkpoint buys nothing and
// doubles the crash surface around the rename.
func TestShutdownSkipsEmptyCheckpoint(t *testing.T) {
	stateDir := t.TempDir()
	d1 := startTestDaemon(t, stateDir)
	gen := d1.logs[0].journal.Gen()
	if err := shutdown(d1); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	d2 := startTestDaemon(t, stateDir)
	defer shutdown(d2)
	if g := d2.logs[0].journal.Gen(); g != gen {
		t.Fatalf("empty shutdown rotated gen %d -> %d", gen, g)
	}
}
