package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// fakeJournal records every committed mutation, optionally vetoing them.
type fakeJournal struct {
	muts    []Mutation
	states  []*ManagerState
	vetoErr error
}

func (f *fakeJournal) Commit(m Mutation) error {
	if f.vetoErr != nil {
		return f.vetoErr
	}
	f.muts = append(f.muts, m)
	return nil
}

func (f *fakeJournal) Checkpoint(st *ManagerState) error {
	f.states = append(f.states, st)
	return nil
}

// runMixedWorkload drives one of every mutation kind through the manager.
func runMixedWorkload(t *testing.T, m *Manager) {
	t.Helper()
	a1 := mustAllocHomog(t, m, Homogeneous{N: 3, Demand: stats.Normal{Mu: 5, Sigma: 2}})
	mustAllocHomog(t, m, Homogeneous{N: 2, Demand: stats.Normal{Mu: 4, Sigma: 1}})
	if _, err := m.AllocateHetero(Heterogeneous{Demands: []stats.Normal{{Mu: 3, Sigma: 1}, {Mu: 6, Sigma: 2}}}); err != nil {
		t.Fatalf("AllocateHetero: %v", err)
	}
	victim := a1.Placement.Entries[0].Machine
	if _, err := m.FailMachine(victim); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	if _, err := m.RepairJob(a1.ID); err != nil {
		t.Fatalf("RepairJob: %v", err)
	}
	if err := m.RestoreMachine(victim); err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if err := m.SetOffline(victim, true); err != nil {
		t.Fatalf("SetOffline: %v", err)
	}
	if err := m.Release(a1.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// TestJournalReplayRebuildsIdenticalState is the heart of the durability
// design: replaying the journal's mutation stream into a fresh manager
// must reproduce the live manager's full exported state, bit for bit.
func TestJournalReplayRebuildsIdenticalState(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	j := &fakeJournal{}
	m.SetJournal(j)
	runMixedWorkload(t, m)

	m2 := mustManager(t, smallThreeTier(), 0.05)
	for i, mut := range j.muts {
		if err := m2.Replay(mut); err != nil {
			t.Fatalf("Replay(record %d, op %v): %v", i, mut.Op, err)
		}
	}
	if got, want := m2.ExportState(), m.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalVetoRollsBackNothing: a vetoed commit must leave the manager
// exactly as it was, for every operation kind.
func TestJournalVetoRollsBackNothing(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	a := mustAllocHomog(t, m, Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}})
	before := m.ExportState()

	j := &fakeJournal{vetoErr: errors.New("disk full")}
	m.SetJournal(j)
	if _, err := m.AllocateHomog(Homogeneous{N: 1, Demand: stats.Normal{Mu: 5, Sigma: 2}}); !errors.Is(err, ErrJournal) {
		t.Fatalf("vetoed AllocateHomog error = %v, want ErrJournal", err)
	}
	if err := m.Release(a.ID); !errors.Is(err, ErrJournal) {
		t.Fatalf("vetoed Release error = %v, want ErrJournal", err)
	}
	if _, err := m.FailMachine(a.Placement.Entries[0].Machine); !errors.Is(err, ErrJournal) {
		t.Fatalf("vetoed FailMachine error = %v, want ErrJournal", err)
	}
	if err := m.SetOffline(a.Placement.Entries[0].Machine, true); !errors.Is(err, ErrJournal) {
		t.Fatalf("vetoed SetOffline error = %v, want ErrJournal", err)
	}
	m.SetJournal(nil)
	if got := m.ExportState(); !reflect.DeepEqual(got, before) {
		t.Fatalf("vetoed operations mutated state:\n got %+v\nwant %+v", got, before)
	}
}

// TestFaultTargetValidated: a fault op or SetOffline on a node that is not
// a machine, or has no uplink, is the caller's mistake (ErrBadRequest). It
// journals nothing — replay would refuse the record and recovery cut the
// log at it — and leaves the manager usable: the fault overlay panics on
// such a target, so it must be refused before anything is staged.
func TestFaultTargetValidated(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	j := &fakeJournal{}
	m.SetJournal(j)
	topo := m.Topology()
	root := topo.Root()
	tor := topo.Node(topo.Machines()[0]).Parent
	for name, call := range map[string]func() error{
		"FailMachine(root)":   func() error { _, err := m.FailMachine(root); return err },
		"RestoreMachine(tor)": func() error { return m.RestoreMachine(tor, WithIdemKey("k")) },
		"FailLink(root)":      func() error { _, err := m.FailLink(topology.LinkID(root)); return err },
		"RestoreLink(root)":   func() error { return m.RestoreLink(topology.LinkID(root)) },
		"SetOffline(tor)":     func() error { return m.SetOffline(tor, true) },
		"FailMachine(-1)":     func() error { _, err := m.FailMachine(-1); return err },
		"FailLink(past tree)": func() error { _, err := m.FailLink(topology.LinkID(topo.Len())); return err },
	} {
		if err := call(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s = %v, want ErrBadRequest", name, err)
		}
	}
	if len(j.muts) != 0 {
		t.Fatalf("bad targets journaled %d records: %+v", len(j.muts), j.muts)
	}
	// The lock was released and the key bound nothing: both still work.
	if err := m.RestoreMachine(topo.Machines()[0], WithIdemKey("k")); err != nil {
		t.Fatalf("RestoreMachine after the refusals: %v", err)
	}
}

// TestIdempotentAllocateReplaysPlacement: a repeated allocate with the
// same key returns the original job without reserving twice; reusing the
// key for a different operation kind conflicts.
func TestIdempotentAllocateReplaysPlacement(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}
	a1, err := m.AllocateHomog(req, WithIdemKey("k1"))
	if err != nil {
		t.Fatalf("first allocate: %v", err)
	}
	free := m.FreeSlots()
	a2, err := m.AllocateHomog(req, WithIdemKey("k1"))
	if err != nil {
		t.Fatalf("replayed allocate: %v", err)
	}
	if a2.ID != a1.ID || a2.Placement.String() != a1.Placement.String() {
		t.Fatalf("replay returned job %d %v, want job %d %v", a2.ID, a2.Placement, a1.ID, a1.Placement)
	}
	if m.FreeSlots() != free || m.Running() != 1 {
		t.Fatalf("replayed allocate reserved again: %d free, %d running", m.FreeSlots(), m.Running())
	}
	if err := m.Release(999, WithIdemKey("k1")); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("key reuse across ops error = %v, want ErrIdemConflict", err)
	}
}

// TestIdempotentReleaseSurvivesRepeat: the second keyed release succeeds
// silently even though the job is long gone.
func TestIdempotentReleaseSurvivesRepeat(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	a := mustAllocHomog(t, m, Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}})
	if err := m.Release(a.ID, WithIdemKey("rel")); err != nil {
		t.Fatalf("first release: %v", err)
	}
	if err := m.Release(a.ID, WithIdemKey("rel")); err != nil {
		t.Fatalf("replayed release: %v", err)
	}
	if err := m.Release(a.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unkeyed repeat error = %v, want ErrUnknownJob", err)
	}
}

// TestIdempotentFaultSkipsReexecution: repeating a keyed fault injection
// must not bump the failure counters again.
func TestIdempotentFaultSkipsReexecution(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	victim := m.Topology().Machines()[0]
	if _, err := m.FailMachine(victim, WithIdemKey("f1")); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreMachine(victim); err != nil {
		t.Fatal(err)
	}
	// The replayed fail must NOT re-fail the restored machine.
	if _, err := m.FailMachine(victim, WithIdemKey("f1")); err != nil {
		t.Fatal(err)
	}
	st := m.FailureStats()
	if st.MachineFailures != 1 || st.MachinesDown != 0 {
		t.Fatalf("replayed fault re-executed: %+v", st)
	}
}

// TestExportStateRoundTrip: export -> rebuild -> export must be a fixed
// point, including after faults, and survive a JSON round trip bit-exactly.
func TestExportStateRoundTrip(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	m.SetJournal(&fakeJournal{})
	a := mustAllocHomog(t, m, Homogeneous{N: 3, Demand: stats.Normal{Mu: 5.125, Sigma: 2.0625}})
	if _, err := m.AllocateHetero(Heterogeneous{Demands: []stats.Normal{{Mu: 3.3, Sigma: 1.1}, {Mu: 0.7, Sigma: 0.2}}}, WithIdemKey("het")); err != nil {
		t.Fatal(err)
	}
	// Four VMs span 3-slot machines, and at sigma = 10 mu the moment-matched
	// min of every split has a negative mean: the committed crossing
	// demand must not be, or the export below does not restore.
	if wide := mustAllocHomog(t, m, Homogeneous{N: 4, Demand: stats.Normal{Mu: 0.5, Sigma: 5}}); len(wide.Placement.Entries) < 2 {
		t.Fatalf("N = 4 placed on one machine: %v", &wide.Placement)
	}
	if _, err := m.FailMachine(a.Placement.Entries[0].Machine, WithIdemKey("boom")); err != nil {
		t.Fatal(err)
	}

	st := m.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ManagerState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&decoded, st) {
		t.Fatalf("JSON round trip changed state:\n got %+v\nwant %+v", &decoded, st)
	}

	m2, err := NewManagerFromState(mustTopo(smallThreeTier()), 0.05, &decoded)
	if err != nil {
		t.Fatalf("NewManagerFromState: %v", err)
	}
	if got := m2.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("rebuilt state differs:\n got %+v\nwant %+v", got, st)
	}

	// The rebuilt manager must behave identically going forward too.
	r1, err1 := m.RepairJob(a.ID)
	r2, err2 := m2.RepairJob(a.ID)
	if (err1 == nil) != (err2 == nil) || r1.Outcome != r2.Outcome || r1.Placement.String() != r2.Placement.String() {
		t.Fatalf("post-rebuild repair diverged: %+v/%v vs %+v/%v", r1, err1, r2, err2)
	}
}

// TestNewManagerFromStateRejectsCorruption: structurally inconsistent
// snapshots must be refused, not replayed into a manager that panics later.
func TestNewManagerFromStateRejectsCorruption(t *testing.T) {
	m := mustManager(t, smallThreeTier(), 0.05)
	mustAllocHomog(t, m, Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}})
	base := m.ExportState()
	topo := mustTopo(smallThreeTier())

	corrupt := []struct {
		name string
		mod  func(st *ManagerState)
	}{
		{"truncated links", func(st *ManagerState) { st.Links = st.Links[:1] }},
		{"negative used", func(st *ManagerState) { st.Used[int(st.Jobs[0].Placement[0].Machine)] = -1 }},
		{"slot mismatch", func(st *ManagerState) { st.Jobs[0].Placement[0].Count++ }},
		{"job id beyond next", func(st *ManagerState) { st.Jobs[0].ID = st.NextID + 5 }},
		{"both request kinds", func(st *ManagerState) {
			st.Jobs[0].Hetero = []stats.Normal{{Mu: 1}}
		}},
		{"bad fault node", func(st *ManagerState) { st.MachinesDown = []int{0} }},
	}
	for _, tc := range corrupt {
		blob, _ := json.Marshal(base)
		var st ManagerState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		tc.mod(&st)
		if _, err := NewManagerFromState(topo, 0.05, &st); err == nil {
			t.Errorf("%s: corrupt state accepted", tc.name)
		}
	}
}

// parkJournal is an AsyncJournal whose durability waits park on a gate:
// staging always completes (and is announced on staged), waits return
// once the gate that was up when they staged is opened.
type parkJournal struct {
	fakeJournal
	mu     sync.Mutex
	gate   chan struct{}
	staged chan MutationOp
}

func newParkJournal() *parkJournal {
	gate := make(chan struct{})
	close(gate)
	// staged only ever holds the few records one test step stages.
	return &parkJournal{gate: gate, staged: make(chan MutationOp, 64)}
}

// park makes every later staging's wait block until the returned open
// function runs.
func (p *parkJournal) park() (open func()) {
	gate := make(chan struct{})
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
	return func() { close(gate) }
}

func (p *parkJournal) StageCommit(m Mutation) (func() error, error) {
	p.mu.Lock()
	gate := p.gate
	p.mu.Unlock()
	p.staged <- m.Op
	return func() error { <-gate; return nil }, nil
}

func (p *parkJournal) Commit(m Mutation) error {
	wait, _ := p.StageCommit(m)
	return wait()
}

// TestFaultPathReleasesLockBeforeDurability: while a fault, an offline
// toggle or a repair sweep waits for its record to become durable, the
// manager lock is free — reads return, dry runs plan, and a second writer
// gets as far as staging its own record.
func TestFaultPathReleasesLockBeforeDurability(t *testing.T) {
	m := newTestManager(t, mediumThreeTier(), 0.05)
	j := newParkJournal()
	m.SetJournal(j)
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}
	victim := mustAllocHomog(t, m, req).Placement.Entries[0].Machine
	spare := m.Topology().Machines()[len(m.Topology().Machines())-1]

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked behind a parked durability wait", what)
		}
	}
	awaitStaged := func(what string, want MutationOp) {
		t.Helper()
		within(what, func() {
			for op := range j.staged {
				if op == want {
					return
				}
			}
		})
	}

	steps := []struct {
		name string
		op   MutationOp
		run  func() error
	}{
		{"FailMachine", OpFailMachine, func() error { _, err := m.FailMachine(victim); return err }},
		{"SetOffline", OpSetOffline, func() error { return m.SetOffline(spare, true) }},
		{"RepairAll", OpRepair, func() error { _, err := m.RepairAll(); return err }},
	}
	for _, step := range steps {
		open := j.park()
		errs := make(chan error, 2)
		go func() { errs <- step.run() }()
		awaitStaged(step.name+" staging", step.op)

		within("Running during "+step.name, func() { m.Running() })
		within("CanAllocateHomog during "+step.name, func() { m.CanAllocateHomog(req) })
		go func() {
			_, err := m.AllocateHomog(req)
			errs <- err
		}()
		awaitStaged("a second writer's staging during "+step.name, OpAlloc)

		open()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
	}
}
