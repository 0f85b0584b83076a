//go:build invariants

package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// invariantsEnabled gates runtime assertions that are too hot for
// production builds. Enable with `go test -tags invariants`; the race
// storm tests run under this tag in scripts/check.sh.
const invariantsEnabled = true

var resumTick atomic.Int64 // samples the re-sum below, across managers

// assertCommitLocked checks a commit whose job charges now and charged old
// (a release passes what it freed as now): Eq. 4 on the links an admission
// or a moved repair charges (degraded repairs weaken eps on purpose), and
// on every 16th commit each link's stochastic count, det, sum_mu and
// sum_var against its live jobs' derived contributions (TestLedgerDrift's 1e-6).
func (m *Manager) assertCommitLocked(mut *Mutation, now, old []Contribution) {
	if mut.Op == OpAlloc || mut.Op == OpRepair && mut.Outcome == RepairMoved {
		for _, c := range now {
			if o := m.led.Occupancy(c.Link); o > 1+1e-9 {
				panic(fmt.Sprintf("invariant violated: link %d occupancy %.12f > 1 after committing job %d (Eq. 4)", c.Link, o, mut.Job))
			}
		}
	}
	if resumTick.Add(1)%16 != 1 {
		return
	}
	for _, cs := range [...][]Contribution{now, old} {
		for _, c := range cs {
			var want linkState
			for _, a := range m.jobs {
				for _, d := range a.contribs {
					if d.Link == c.Link && d.Det {
						want.det += d.Mu
					} else if d.Link == c.Link {
						want.sumMu, want.sumVar, want.stochastic = want.sumMu+d.Mu, want.sumVar+d.demand().Var(), want.stochastic+1
					}
				}
			}
			got := m.led.links[c.Link]
			if got.stochastic != want.stochastic || math.Abs(got.det-want.det) > 1e-6 ||
				math.Abs(got.sumMu-want.sumMu) > 1e-6 || math.Abs(got.sumVar-want.sumVar) > 1e-6 {
				panic(fmt.Sprintf("invariant violated: after %v of job %d, link %d holds %+v, its jobs' contributions sum to %+v", mut.Op, mut.Job, c.Link, got, want))
			}
		}
	}
}
