// Package consumer exercises the cross-package rule: other packages must
// not mutate the ledger or fault overlay directly.
package consumer

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// --- negative: reads and Manager API calls are fine ---

func Report(m *core.Manager, led *core.Ledger) int {
	_ = core.NewManager()
	return led.Used(0) + m.Occupied(0)
}

// --- negative: a private scratch ledger built here may be mutated ---

func Scratch() *core.Ledger {
	l := core.NewLedger().Clone()
	return l
}

// --- positive: direct ledger mutation from outside core ---

func Poke(led *core.Ledger) {
	led.UseSlots(0, 1) // want `direct Ledger\.UseSlots outside internal/core`
}

func Drain(led *core.Ledger) {
	led.ReleaseSlots(0, 1) // want `direct Ledger\.ReleaseSlots outside internal/core`
}

// --- positive: direct fault injection from outside core ---

func Kill(f *topology.Faults, id topology.MachineID) {
	f.FailMachine(id) // want `direct Faults\.FailMachine outside internal/core`
}

// --- positive: replaying a raw record outside wal's replay loop skips
// planning and journaling both ---

func Refeed(m *core.Manager, mut *core.Mutation) error {
	return m.Replay(mut) // want `Replay outside internal/wal`
}
