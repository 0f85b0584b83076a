// Package core is a fixture shadowing repro/internal/core: a miniature
// Manager/Ledger with the same journal-seam shape as the real one.
package core

import (
	"sync"

	"repro/internal/topology"
)

type JobID int

type Mutation struct {
	Job JobID
	Key string
}

// IdemTable mirrors the real one: a named map whose Bind is its one
// writing method.
type IdemTable map[string]JobID

func (t IdemTable) Bind(mut Mutation) { t[mut.Key] = mut.Job }

func (t IdemTable) Replay(key string) (JobID, bool) { id, ok := t[key]; return id, ok }

type Ledger struct {
	used map[int]int
}

func NewLedger() *Ledger { return &Ledger{used: map[int]int{}} }

func (l *Ledger) Clone() *Ledger {
	c := &Ledger{used: make(map[int]int, len(l.used))}
	for k, v := range l.used {
		c.used[k] = v
	}
	return c
}

func (l *Ledger) UseSlots(m, n int) bool     { l.used[m] += n; return true }
func (l *Ledger) ReleaseSlots(m, n int) bool { l.used[m] -= n; return true }
func (l *Ledger) AddDet(link int, b float64) {}
func (l *Ledger) SetOffline(m int, off bool) {}
func (l *Ledger) Faults() *topology.Faults   { return topology.NewFaults() }
func (l *Ledger) Used(m int) int             { return l.used[m] }

func commit(l *Ledger, mut *Mutation) error   { return nil }
func rollback(l *Ledger, mut *Mutation) error { return nil }

type Manager struct {
	mu      sync.Mutex
	led     *Ledger
	jobs    map[JobID]int
	version uint64
	nextID  JobID
	idem    IdemTable

	counters      struct{ repairs uint64 } // journaled with the state
	repairLatency int64                    // telemetry, not state
}

// --- negative: constructors may initialise journaled state directly ---

func NewManager() *Manager {
	return &Manager{led: NewLedger(), jobs: map[JobID]int{}}
}

func newManagerFromState(led *Ledger) *Manager {
	m := &Manager{led: led, jobs: map[JobID]int{}}
	m.version = 1
	return m
}

// --- negative: applyLocked is the seam ---

func (m *Manager) applyLocked(mut *Mutation) error {
	if err := commit(m.led, mut); err != nil {
		return err
	}
	m.jobs[mut.Job] = 1
	m.counters.repairs++
	m.version++
	m.idem.Bind(*mut)
	return nil
}

// --- negative: planning on a scratch clone is fine ---

func (m *Manager) planLocked(mut *Mutation) error {
	scratch := m.led.Clone()
	if !scratch.UseSlots(0, 1) {
		return nil
	}
	return commit(scratch, mut)
}

// --- negative: reads of journaled state are fine ---

func (m *Manager) Occupied(machine int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.led.Used(machine)
}

// --- positive: direct field writes outside the seam ---

func (m *Manager) badBump() {
	m.version++ // want `write to Manager\.version outside applyLocked`
}

func (m *Manager) badSwap(led *Ledger) {
	m.led = led // want `write to Manager\.led outside applyLocked`
}

func (m *Manager) badCount() {
	m.counters.repairs++ // want `write to Manager\.counters outside applyLocked`
}

// --- negative: timings are not journaled ---

func (m *Manager) observeRepair(ns int64) {
	m.repairLatency += ns
}

func (m *Manager) badBind(mut Mutation) {
	if _, bound := m.idem.Replay(mut.Key); !bound { // reading the table is fine
		m.idem.Bind(mut) // want `Bind on Manager\.idem outside applyLocked`
	}
}

func (m *Manager) badForget(id JobID) {
	delete(m.jobs, id) // want `delete of Manager\.jobs outside applyLocked`
}

// --- positive: committing or mutating the live ledger outside the seam ---

func (m *Manager) badCommit(mut *Mutation) error {
	return commit(m.led, mut) // want `commit on the live ledger outside applyLocked`
}

func (m *Manager) badUse() {
	m.led.UseSlots(0, 1) // want `UseSlots on the live ledger outside applyLocked`
}

func (m *Manager) badFault(id topology.MachineID) {
	m.led.Faults().FailMachine(id) // want `FailMachine on the live ledger outside applyLocked`
}

// --- negative: Replay is the follower's journal-less apply seam ---

func (m *Manager) Replay(mut *Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(mut)
}

func (m *Manager) Release(id JobID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(&Mutation{Job: id})
}
