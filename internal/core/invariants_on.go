//go:build invariants

package core

import "fmt"

// invariantsEnabled gates runtime assertions that are too hot for
// production builds. Enable with `go test -tags invariants`; the race
// storm tests run under this tag in scripts/check.sh.
const invariantsEnabled = true

// assertOccupancyLocked checks paper Eq. 4 after an admission or a moved
// repair commits: every link the placement contributes to must still
// satisfy O_L <= 1 (plus float slack). Degraded repairs are exempt — they
// deliberately re-admit at a weakened eps, so the global-c occupancy
// measure may legitimately exceed 1 for those links.
func (m *Manager) assertOccupancyLocked(mut *Mutation) {
	if mut.Op != OpAlloc && (mut.Op != OpRepair || mut.Outcome != RepairMoved) {
		return
	}
	const slack = 1e-9
	for _, c := range mut.Contribs {
		if o := m.led.Occupancy(c.Link); o > 1+slack {
			panic(fmt.Sprintf("invariant violated: link %d occupancy %.12f > 1 after committing job %d (Eq. 4)",
				c.Link, o, mut.Job))
		}
	}
}
