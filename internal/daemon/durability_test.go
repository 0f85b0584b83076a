package daemon

import (
	"context"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/topology"
)

// paperTopo is svcd's builtin datacenter.
func paperTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return topo
}

// startNode builds and starts a node on a random port, nosync, with
// svcd's other defaults; cfg.Topo defaults to the paper topology.
func startNode(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Topo == nil {
		cfg.Topo = paperTopo(t)
	}
	cfg.Addr, cfg.Eps, cfg.NoSync = "127.0.0.1:0", 0.05, true
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d.Start()
	return d
}

// startTestDaemon starts an in-process primary on a random port.
func startTestDaemon(t *testing.T, stateDir string) *Daemon {
	return startNode(t, Config{StateDir: stateDir})
}

// shutdown seals d as a SIGTERM would.
func shutdown(d *Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

func testClient(d *Daemon) *httpapi.Client {
	return httpapi.NewClient(d.URL(), nil,
		httpapi.WithRetries(2), httpapi.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
}

// TestDaemonSurvivesCrashRestart is the end-to-end acceptance check: jobs
// admitted and faults injected before an abrupt kill are all visible
// after a restart from the same -state-dir, and a duplicate allocate with
// the original idempotency key replays the placement without
// double-reserving.
func TestDaemonSurvivesCrashRestart(t *testing.T) {
	stateDir := t.TempDir()
	ctx := context.Background()

	d1 := startTestDaemon(t, stateDir)
	c1 := testClient(d1)
	keyedReq := httpapi.AllocationRequest{N: 4, Mu: 120, Sigma: 40}
	keyed, err := c1.Allocate(ctx, keyedReq, httpapi.WithIdempotencyKey("boot-1"))
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 2, Mu: 60}); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	mc := int(d1.cfg.Topo.Machines()[0])
	if _, err := c1.Fault(ctx, httpapi.FaultRequest{Machine: &mc}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	before, err := c1.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}

	// Crash: stop serving without drain, checkpoint, or journal close.
	d1.Crash()

	d2 := startTestDaemon(t, stateDir)
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
	if after.RunningJobs != before.RunningJobs || after.FreeSlots != before.FreeSlots ||
		after.MachinesDown != before.MachinesDown {
		t.Fatalf("restarted status %+v != pre-crash %+v", after, before)
	}
	fstats, err := c2.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fstats.MachineFailures != 1 {
		t.Errorf("machine failures after restart = %d, want 1", fstats.MachineFailures)
	}

	// The duplicate keyed allocate must replay, not re-reserve.
	replay, err := c2.Allocate(ctx, keyedReq, httpapi.WithIdempotencyKey("boot-1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if replay.ID != keyed.ID {
		t.Errorf("replay returned job %d, want %d", replay.ID, keyed.ID)
	}
	final, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.FreeSlots != after.FreeSlots || final.RunningJobs != after.RunningJobs {
		t.Errorf("replayed allocate reserved again: %+v -> %+v", after, final)
	}
}

// TestDaemonGracefulShutdownSealsState: SIGTERM-style shutdown drains,
// checkpoints, and the next boot recovers from the snapshot alone.
func TestDaemonGracefulShutdownSealsState(t *testing.T) {
	stateDir := t.TempDir()
	ctx := context.Background()

	d1 := startTestDaemon(t, stateDir)
	c1 := testClient(d1)
	if _, err := c1.Allocate(ctx, httpapi.AllocationRequest{N: 3, Mu: 80, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	gen := d1.logs[0].journal.Gen()
	if err := shutdown(d1); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Draining servers refuse mutations before the listener closes; after
	// shutdown the port is gone entirely.
	if _, err := c1.Status(ctx); err == nil {
		t.Error("status still served after shutdown")
	}

	d2 := startTestDaemon(t, stateDir)
	defer shutdown(d2)
	if g := d2.logs[0].journal.Gen(); g <= gen {
		t.Errorf("shutdown did not checkpoint: gen %d -> %d", gen, g)
	}
	st, err := testClient(d2).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunningJobs != 1 {
		t.Errorf("running jobs after graceful restart = %d, want 1", st.RunningJobs)
	}
}

// TestDaemonDrainRefusesWritesDuringShutdown: while shutdown drains, a
// mutating request racing it gets 503, never a hang or a lost write.
func TestDaemonDrainRefusesWritesDuringShutdown(t *testing.T) {
	d := startTestDaemon(t, t.TempDir())
	d.api.SetDraining(true)
	resp, err := http.Post(d.URL()+"/v1/allocations",
		"application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining daemon returned %d, want 503", resp.StatusCode)
	}
	if err := shutdown(d); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestNewClosesWhatItOpenedWhenListenFails: the state directory is
// opened before the address is bound, so an occupied port must hand back
// every descriptor — the journal, a router's K pod journals and intent
// log, a standby's mirror — not just report the error.
func TestNewClosesWhatItOpenedWhenListenFails(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(fds)
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"journaled", Config{Topo: paperTopo(t)}},
		{"shards", Config{Topo: podsTopo(t), Shards: 2}},
		{"standby", Config{Topo: paperTopo(t), Role: "standby", Follow: "http://127.0.0.1:1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Addr, cfg.Eps, cfg.StateDir, cfg.NoSync = busy.Addr().String(), 0.05, t.TempDir(), true
			http.DefaultClient.CloseIdleConnections() // earlier tests' keep-alives must not close mid-count
			before := openFDs()
			if _, err := New(cfg); err == nil {
				t.Fatal("New bound an occupied port")
			}
			if after := openFDs(); after > before {
				t.Errorf("New leaked %d descriptors on the listen-failure path", after-before)
			}
		})
	}
}
