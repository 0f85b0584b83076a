package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestLedgerDrift measures how far the ledger's running float sums drift
// from the sums of the jobs they hold. A seeded stream of admissions
// (homogeneous, deterministic and heterogeneous), releases, machine and
// link failures, restores and repairs runs on the paper's datacenter;
// every few hundred operations, and at the end, each link's det, sumMu
// and sumVar are compared with a fresh ledger onto which the live jobs'
// contributions were committed in job-ID order. It reports the largest
// absolute difference, the largest occupancy difference and the number
// of links whose Eq. 4 verdict (occupancy ≤ 1) differs between the two,
// and fails if a verdict flips, if a link's stochastic count differs, or
// if any sum drifts by more than 1e-6 Mbps.
func TestLedgerDrift(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.05
	m, err := NewManager(topo, eps)
	if err != nil {
		t.Fatal(err)
	}
	ops := 8000
	if testing.Short() {
		ops = 2000
	}
	r := stats.NewRand(10)
	machines, links := topo.Machines(), topo.Links()
	var live []JobID
	var maxSum, maxOcc, nearest float64
	nearest = math.Inf(1)
	checks, flips, admitted := 0, 0, 0
	check := func(op int) {
		checks++
		fresh, err := NewLedger(topo, eps)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]JobID, 0, len(m.jobs))
		for id := range m.jobs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			a := m.jobs[id]
			commit(fresh, &a.Placement, a.contribs)
		}
		for _, id := range links {
			got, want := m.led.links[id], fresh.links[id]
			if got.stochastic != want.stochastic {
				t.Fatalf("op %d: link %d carries %d stochastic demands, its jobs %d", op, id, got.stochastic, want.stochastic)
			}
			for _, d := range []float64{got.det - want.det, got.sumMu - want.sumMu, got.sumVar - want.sumVar} {
				maxSum = max(maxSum, math.Abs(d))
			}
			occ, occFresh := m.led.Occupancy(id), fresh.Occupancy(id)
			maxOcc = max(maxOcc, math.Abs(occ-occFresh))
			if occFresh > 0 {
				nearest = min(nearest, math.Abs(1-occFresh))
			}
			if (occ <= 1) != (occFresh <= 1) {
				flips++
				t.Errorf("op %d: link %d Eq. 4 verdict flips: live occupancy %v, re-summed %v", op, id, occ, occFresh)
			}
		}
	}
	mus := []float64{50, 100, 200, 300, 500}
	for op := 1; op <= ops; op++ {
		switch p := r.Float64(); {
		case p < 0.45 && len(live) < 300:
			mu := r.Pick(mus)
			req := Homogeneous{N: r.UniformInt(2, 40), Demand: stats.Normal{Mu: mu, Sigma: r.Float64() * 2 * mu}}
			if r.Float64() < 0.15 {
				req.Demand.Sigma = 0
			}
			if a, err := m.AllocateHomog(req); err == nil {
				live = append(live, a.ID)
				admitted++
			}
		case p < 0.52 && len(live) < 300:
			ds := make([]stats.Normal, r.UniformInt(2, 12))
			for i := range ds {
				mu := r.Pick(mus)
				ds[i] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
			}
			if a, err := m.AllocateHetero(Heterogeneous{Demands: ds}); err == nil {
				live = append(live, a.ID)
				admitted++
			}
		case p < 0.88:
			if len(live) == 0 {
				continue
			}
			i := r.IntN(len(live))
			// A failure repair may have evicted the job already.
			if err := m.Release(live[i]); err != nil && m.jobs[live[i]] != nil {
				t.Fatalf("op %d: Release: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case p < 0.92:
			if _, err := m.FailMachine(machines[r.IntN(len(machines))]); err != nil {
				t.Fatalf("op %d: FailMachine: %v", op, err)
			}
		case p < 0.94:
			if _, err := m.FailLink(links[r.IntN(len(links))]); err != nil {
				t.Fatalf("op %d: FailLink: %v", op, err)
			}
		case p < 0.97:
			for _, mc := range machines {
				if m.led.Faults().MachineDown(mc) {
					if err := m.RestoreMachine(mc); err != nil {
						t.Fatalf("op %d: RestoreMachine: %v", op, err)
					}
				}
			}
			for _, l := range links {
				if m.led.Faults().LinkDown(l) {
					if err := m.RestoreLink(l); err != nil {
						t.Fatalf("op %d: RestoreLink: %v", op, err)
					}
				}
			}
		default:
			if _, err := m.RepairAll(); err != nil {
				t.Fatalf("op %d: RepairAll: %v", op, err)
			}
		}
		if op%250 == 0 {
			check(op)
		}
	}
	check(ops)
	t.Logf("%d ops (%d admitted), %d checks, %d live jobs at the end: max |sum drift| %.3g Mbps, max |occupancy drift| %.3g, nearest re-summed occupancy to 1: %.3g away, Eq. 4 verdict flips %d",
		ops, admitted, checks, len(m.jobs), maxSum, maxOcc, nearest, flips)
	if maxSum > 1e-6 {
		t.Errorf("max |sum drift| = %v Mbps, want ≤ 1e-6", maxSum)
	}
}
