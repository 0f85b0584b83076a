package scenario

import (
	"os"
	"strings"
	"testing"
)

const failoverDoc = `
name: failover-mini
seed: 7
topology:
  aggs: 1
  tors_per_agg: 2
  machines_per_rack: 4
  slots_per_machine: 4
  host_cap_mbps: 1000
  oversub: 2
fleet:
  tenants: 24
  arrival:
    pattern: linear
    over_seconds: 40
  templates:
    - name: t
      n: {fixed: 2}
      demand: {mu: 100, sigma: 30}
      hold: {lo: 10, hi: 30}
chaos:
  failovers: [15, 35]
run:
  max_seconds: 80
  sample_every: 10
assert:
  conservation: true
  drain_to_empty: true
`

func decodeFailoverDoc(t *testing.T) *Scenario {
	t.Helper()
	s, err := Decode([]byte(failoverDoc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return s
}

// TestFailoverEventsCompile: chaos.failovers compiles into EvFailover
// events, ordered after same-second fault events.
func TestFailoverEventsCompile(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var ats []int
	for _, ev := range p.Events {
		if ev.Kind == EvFailover {
			ats = append(ats, ev.At)
		}
	}
	if len(ats) != 2 || ats[0] != 15 || ats[1] != 35 {
		t.Fatalf("failover events at %v, want [15 35]", ats)
	}
	if EvFailover.String() != "failover" {
		t.Fatalf("EvFailover renders as %q", EvFailover)
	}
	// Same-second ordering: a failover ranks after both failures and
	// restores, so the promoted controller inherits settled fault state.
	events := []Event{
		{At: 5, Kind: EvFailover},
		{At: 5, Kind: EvRestoreMachine, Node: 1},
		{At: 5, Kind: EvFailMachine, Node: 2},
	}
	sortEvents(events)
	if events[0].Kind != EvFailMachine || events[1].Kind != EvRestoreMachine || events[2].Kind != EvFailover {
		t.Fatalf("same-second order %v %v %v, want fail, restore, failover",
			events[0].Kind, events[1].Kind, events[2].Kind)
	}
}

// TestFailoverValidation: out-of-range and non-increasing schedules are
// rejected.
func TestFailoverValidation(t *testing.T) {
	for _, tc := range []struct {
		repl string
		want string
	}{
		{"failovers: [15, 120]", "outside [0, max_seconds]"},
		{"failovers: [35, 15]", "strictly increasing"},
		{"failovers: [15, 15]", "strictly increasing"},
	} {
		doc := strings.Replace(failoverDoc, "failovers: [15, 35]", tc.repl, 1)
		s, err := Decode([]byte(doc))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.repl, err)
		}
		err = s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate = %v, want %q", tc.repl, err, tc.want)
		}
	}
}

// TestSimFailoverPreservesState: the offline backend survives scheduled
// failovers with the conservation mirror and drain assertions intact,
// and the report counts the switches.
func TestSimFailoverPreservesState(t *testing.T) {
	rep := runSim(t, decodeFailoverDoc(t))
	if !rep.Pass {
		buf, _ := rep.JSON()
		t.Fatalf("failover run failed:\n%s", buf)
	}
	if rep.Failovers != 2 {
		t.Fatalf("report counts %d failovers, want 2", rep.Failovers)
	}
	if rep.Admitted == 0 || rep.Completed != rep.Admitted {
		t.Fatalf("lifecycle accounting across failovers: admitted %d completed %d", rep.Admitted, rep.Completed)
	}
}

// TestLivePairFailover: the same plan runs against a real primary +
// hot-standby pair — every failover is a genuine WAL catch-up, fenced
// promotion, and abrupt primary crash — and must agree with the offline
// backend on every outcome.
func TestLivePairFailover(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pair, err := StartLocalPair(LocalConfig{
		Topo: p.Topo, Eps: s.Eps, StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("StartLocalPair: %v", err)
	}
	defer pair.Close()
	lb := NewLiveBackend(pair.URL)
	lb.SetFailover(pair.Failover)
	live, err := Run(p, lb)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if !live.Pass || live.Failovers != 2 {
		buf, _ := live.JSON()
		t.Fatalf("live failover run (failovers=%d):\n%s", live.Failovers, buf)
	}
	sim := runSim(t, s)
	if sim.Admitted != live.Admitted || sim.Rejected != live.Rejected ||
		sim.Completed != live.Completed || sim.Killed != live.Killed {
		t.Fatalf("backends disagree across failovers: sim %d/%d/%d/%d live %d/%d/%d/%d",
			sim.Admitted, sim.Rejected, sim.Completed, sim.Killed,
			live.Admitted, live.Rejected, live.Completed, live.Killed)
	}
}

// TestEngineRejectsFailoverOnIncapableBackend: a backend without the
// Failoverer seam fails the run loudly instead of skipping the event.
func TestEngineRejectsFailoverOnIncapableBackend(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	srv, err := StartLocal(LocalConfig{Topo: p.Topo, Eps: s.Eps})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer srv.Close()
	if _, err := Run(p, NewLiveBackend(srv.URL)); err == nil ||
		!strings.Contains(err.Error(), "fail over") {
		t.Fatalf("Run on pairless backend: %v, want failover refusal", err)
	}
}

// TestStartLocalPairRequiresStateDir pins the config contract: the WAL
// is the replication stream, so a memory-only pair is meaningless.
func TestStartLocalPairRequiresStateDir(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := StartLocalPair(LocalConfig{Topo: p.Topo, Eps: s.Eps}); err == nil {
		t.Fatal("StartLocalPair without a state dir succeeded")
	}
	if _, err := os.Stat("primary"); err == nil {
		t.Fatal("StartLocalPair littered the working directory")
	}
}
