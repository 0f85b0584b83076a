// Package replica exercises the follower rule (invariant I9): a standby
// hands replicated records to internal/wal, whose replay loop is the one
// caller of Manager.Replay — it never applies a record itself, never
// journals, and never pokes the ledger or fault overlay it serves reads
// from, however tempting the shortcut is while mirroring a stream that
// was already validated on the primary.
package replica

import (
	"repro/internal/core"
	"repro/internal/topology"
)

type Standby struct {
	mgr *core.Manager
	led *core.Ledger
}

// --- positive: a second replay loop beside wal's ---

func (s *Standby) badReplay(mut *core.Mutation) error {
	return s.mgr.Replay(mut) // want `Replay outside internal/wal`
}

// --- negative: serving reads from the follower manager ---

func (s *Standby) Occupied(machine int) int {
	return s.mgr.Occupied(machine)
}

// --- negative: lag accounting reads the ledger, it never writes it ---

func (s *Standby) Used(machine int) int {
	return s.led.Used(machine)
}

// --- positive: "fast-path" applying a validated record by hand ---

func (s *Standby) badApply() {
	s.led.UseSlots(0, 1) // want `direct Ledger\.UseSlots outside internal/core`
}

// --- positive: un-applying on stream reset by releasing slots directly ---

func (s *Standby) badReset() {
	s.led.ReleaseSlots(0, 1) // want `direct Ledger\.ReleaseSlots outside internal/core`
}

// --- positive: mirroring a fault record straight into the overlay ---

func (s *Standby) badFault(f *topology.Faults, id topology.MachineID) {
	f.FailMachine(id) // want `direct Faults\.FailMachine outside internal/core`
}
