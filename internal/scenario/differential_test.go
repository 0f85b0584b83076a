package scenario

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
)

// TestDifferentialSimVsLive runs the same compiled plan against the
// offline manager and against a live in-process svcd (the internal/daemon
// node svcd runs: HTTP API over a nosync WAL) and requires the two runs to agree exactly: same admission
// outcomes, same report, same final exported ledger. The engine issues an
// identical call sequence to both backends, so any divergence is a bug in
// the wire layer, the WAL, or the admission pipeline.
func TestDifferentialSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live daemon round-trips in -short mode")
	}
	s := decodeTestDoc(t)

	plan1, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sim, err := NewSimBackend(plan1.Topo, s.Eps)
	if err != nil {
		t.Fatalf("NewSimBackend: %v", err)
	}
	defer sim.Close()
	simRep, err := Run(plan1, sim)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}

	plan2, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	live, err := StartLive(daemon.Config{Topo: plan2.Topo, Eps: s.Eps, StateDir: t.TempDir()}, false)
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	liveRep, err := Run(plan2, live)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}

	// The reports must agree on everything but the backend label.
	liveRep.Backend = simRep.Backend
	if !reflect.DeepEqual(simRep, liveRep) {
		sj, _ := simRep.JSON()
		lj, _ := liveRep.JSON()
		t.Fatalf("reports diverge:\nsim:\n%s\nlive:\n%s", sj, lj)
	}

	// And the final ledgers must be identical, byte for byte: the live
	// state crossed the wire as JSON and survived a WAL.
	simState, err := sim.State()
	if err != nil {
		t.Fatalf("sim state: %v", err)
	}
	liveState, err := live.State()
	if err != nil {
		t.Fatalf("live state: %v", err)
	}
	if !reflect.DeepEqual(simState, liveState) {
		t.Fatalf("ledgers diverge:\nsim:  %+v\nlive: %+v", simState, liveState)
	}
	if err := live.Close(); err != nil {
		t.Fatalf("shut down the live node: %v", err)
	}
}

// TestDifferentialSimVsSharded runs one compiled plan per document on
// several backends and requires identical reports and final exported
// ledgers. On a tree with one aggregation subtree the router has one pod
// holding the whole tree, so it IS the unsharded manager (INVARIANTS.md
// I10): the offline manager, the in-process router and a sharded svcd
// behind the HTTP API must agree, repairs included. With two pods the
// router rejects what no single pod can host, which the manager would
// place, so there the in-process router and the sharded svcd agree with
// each other.
func TestDifferentialSimVsSharded(t *testing.T) {
	onePod := decodeTestDoc(t)
	onePod.Topology.Aggs, onePod.Topology.TorsPerAgg = 1, 4
	onePod.Run.Shards = 1
	twoPods := decodeTestDoc(t)
	twoPods.Run.Shards = 2
	for _, s := range []*Scenario{onePod, twoPods} {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}

	backends := []string{"shard"}
	if !testing.Short() { // live daemon round-trips in -short mode
		backends = append(backends, "live-shard")
	}
	wantRep, wantState := runDifferential(t, onePod, "sim")
	for _, backend := range backends {
		rep, state := runDifferential(t, onePod, backend)
		sameRun(t, "one pod: sim vs "+backend, wantRep, rep, wantState, state)
	}
	if testing.Short() {
		return
	}
	wantRep, wantState = runDifferential(t, twoPods, "shard")
	rep, state := runDifferential(t, twoPods, "live-shard")
	sameRun(t, "two pods: shard vs live-shard", wantRep, rep, wantState, state)
}

// runDifferential compiles s and runs it on backend: "sim" (the
// unsharded manager), "shard" (the in-process router) or "live-shard" (an
// svcd node with -shards over HTTP). It returns the report, labelled
// "sim" whatever ran it, and the final exported state.
func runDifferential(t *testing.T, s *Scenario, backend string) (*Report, *core.ManagerState) {
	t.Helper()
	p, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var b Backend
	switch backend {
	case "sim":
		b, err = NewSimBackend(p.Topo, s.Eps)
	case "shard":
		b, err = NewShardBackend(t.TempDir(), p.Topo, s.Eps, s.Run.Shards)
	default:
		b, err = StartLive(daemon.Config{Topo: p.Topo, Eps: s.Eps, StateDir: t.TempDir(), Shards: s.Run.Shards}, false)
	}
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	rep, err := Run(p, b)
	if err != nil {
		t.Fatalf("%s run: %v", backend, err)
	}
	state, err := b.State()
	if err != nil {
		t.Fatalf("%s state: %v", backend, err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close %s: %v", backend, err)
	}
	rep.Backend = "sim"
	return rep, state
}

// sameRun fails unless two runs agree on the report and the final state.
func sameRun(t *testing.T, what string, wantRep, rep *Report, wantState, state *core.ManagerState) {
	t.Helper()
	if !reflect.DeepEqual(wantRep, rep) {
		wj, _ := wantRep.JSON()
		gj, _ := rep.JSON()
		t.Fatalf("%s: reports diverge:\nwant:\n%s\ngot:\n%s", what, wj, gj)
	}
	if !reflect.DeepEqual(wantState, state) {
		t.Fatalf("%s: states diverge:\nwant: %+v\n got: %+v", what, wantState, state)
	}
}
