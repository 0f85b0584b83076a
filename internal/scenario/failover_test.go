package scenario

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/httpapi"
	"repro/internal/topology"
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
// hot-standby pair of svcd nodes — every failover is POST /v1/promote on
// the standby (a genuine WAL catch-up and fenced promotion) and an abrupt
// primary crash — and must agree with the offline backend on every
// outcome.
func TestLivePairFailover(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	lb, err := StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps, StateDir: t.TempDir()}, true)
	if err != nil {
		t.Fatalf("StartLive pair: %v", err)
	}
	defer lb.Close()
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
	lb, err := StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps}, false)
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	defer lb.Close()
	if _, err := Run(p, lb); err == nil ||
		!strings.Contains(err.Error(), "fail over") {
		t.Fatalf("Run on pairless backend: %v, want failover refusal", err)
	}
}

// TestStartLivePairRequiresStateDir pins the config contract: the WAL
// is the replication stream, so a memory-only pair is meaningless.
func TestStartLivePairRequiresStateDir(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps}, true); err == nil {
		t.Fatal("StartLive pair without a state dir succeeded")
	}
	if _, err := os.Stat("primary"); err == nil {
		t.Fatal("StartLive littered the working directory")
	}
}

// statusKeys flattens httpapi.Status's JSON tags into dotted keys, as
// httpapi's TestStatusKeySetGolden pins them, and reports which are
// omitempty (a zero counter may leave those out).
func statusKeys() (optional map[string]bool) {
	optional = make(map[string]bool)
	var walk func(prefix string, typ reflect.Type, opt bool)
	walk = func(prefix string, typ reflect.Type, opt bool) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			optional[prefix] = opt
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name, rest, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			walk(strings.TrimPrefix(prefix+"."+name, "."), typ.Field(i).Type, rest == "omitempty")
		}
	}
	walk("", reflect.TypeOf(httpapi.Status{}), false)
	return optional
}

// TestLiveNodesAnswerSvcdStatus is the reason the runner starts
// internal/daemon nodes: whatever `svcscn -backend live` runs against —
// plain, sharded, either side of a failover pair — answers GET
// /v1/status with exactly the sections svcd serves in that role, every
// pinned key of each and nothing else. A look-alike server that wires no
// wal, replication or sharding seam fails here.
func TestLiveNodesAnswerSvcdStatus(t *testing.T) {
	s := decodeFailoverDoc(t)
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pods, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 1, MachinesPerRack: 2, SlotsPerMachine: 2, HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps, StateDir: t.TempDir()}, false)
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	defer plain.Close()
	sharded, err := StartLive(daemon.Config{Topo: pods, Eps: s.Eps, StateDir: t.TempDir(), Shards: 2}, false)
	if err != nil {
		t.Fatalf("StartLive sharded: %v", err)
	}
	defer sharded.Close()
	pair, err := StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps, StateDir: t.TempDir()}, true)
	if err != nil {
		t.Fatalf("StartLive pair: %v", err)
	}
	defer pair.Close()

	optional := statusKeys()
	check := func(name, url string, sections ...string) {
		t.Helper()
		resp, err := http.Get(url + "/v1/status")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make(map[string]bool)
		var flatten func(prefix string, v any)
		flatten = func(prefix string, v any) {
			switch v := v.(type) {
			case map[string]any:
				for k, e := range v {
					flatten(strings.TrimPrefix(prefix+"."+k, "."), e)
				}
			case []any:
				for _, e := range v {
					flatten(prefix, e)
				}
			default:
				got[prefix] = true
			}
		}
		flatten("", body)
		served := func(key string) bool {
			section, _, nested := strings.Cut(key, ".")
			return !nested || slices.Contains(sections, section)
		}
		for key := range got {
			if _, pinned := optional[key]; !pinned || !served(key) {
				t.Errorf("%s: status carries %q, which svcd does not serve in this role", name, key)
			}
		}
		for key, opt := range optional {
			if served(key) && !opt && !got[key] {
				t.Errorf("%s: status lacks %q", name, key)
			}
		}
	}
	check("plain", plain.primary.URL(), "admission", "wal", "replication")
	check("sharded", sharded.primary.URL(), "admission", "wal", "sharding")
	check("pair primary", pair.primary.URL(), "admission", "wal", "replication")
	check("pair standby", pair.standby.URL(), "admission", "replication")
	if err := pair.Failover(); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	check("promoted standby", pair.primary.URL(), "admission", "wal", "replication")
	check("fresh standby", pair.standby.URL(), "admission", "replication")
}
