package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestRepairGuaranteeMonteCarlo is the acceptance check for the repair
// path: a seeded scenario fails more than 5% of the datacenter's machines,
// every affected job is repaired, and the probabilistic bandwidth
// guarantee is then re-measured by Audit — per-VM demands are drawn from
// the jobs' demand distributions and the realized crossing traffic on
// every live link is compared against its capacity. The empirical
// violation frequency must stay within eps (plus a Monte Carlo margin) for
// every link, because no job was degraded.
func TestRepairGuaranteeMonteCarlo(t *testing.T) {
	const (
		eps     = 0.10
		samples = 20000
		jobSize = 8
	)
	// 2 racks x 8 machines x 4 slots. Host links are sized so one job's
	// crossing demand is a meaningful fraction of capacity (the guarantee
	// is exercised, not trivially slack).
	rack := func() topology.Spec {
		s := topology.Spec{UpCap: 2400}
		for i := 0; i < 8; i++ {
			s.Children = append(s.Children, topology.Spec{UpCap: 600, Slots: 4})
		}
		return s
	}
	m, err := NewManager(mustTopo(topology.Spec{Children: []topology.Spec{rack(), rack()}}), eps)
	if err != nil {
		t.Fatal(err)
	}
	tp := m.Topology()
	profile := stats.Normal{Mu: 60, Sigma: 30}
	req := Homogeneous{N: jobSize, Demand: profile}

	// Fill the datacenter, then release the last two jobs so repair has
	// headroom to move displaced VMs into.
	var jobs []*Allocation
	for {
		a, err := m.AllocateHomog(req)
		if err != nil {
			break
		}
		jobs = append(jobs, a)
	}
	if len(jobs) < 4 {
		t.Fatalf("admitted only %d jobs; scenario needs a loaded datacenter", len(jobs))
	}
	for _, a := range jobs[len(jobs)-2:] {
		if err := m.Release(a.ID); err != nil {
			t.Fatal(err)
		}
	}
	jobs = jobs[:len(jobs)-2]

	// Fail one machine of each of the first two jobs: 2 of 16 machines is
	// 12.5% > the 5% floor the acceptance criterion requires.
	r := stats.NewRand(20140708)
	failed := map[topology.NodeID]bool{}
	for _, a := range jobs[:2] {
		victim := a.Placement.Entries[r.UniformInt(0, len(a.Placement.Entries)-1)].Machine
		if failed[victim] {
			victim = a.Placement.Entries[0].Machine
		}
		failed[victim] = true
		m.FailMachine(victim)
	}
	if got, want := len(failed), 2; got != want {
		t.Fatalf("failed %d distinct machines, want %d", got, want)
	}
	if frac := float64(len(failed)) / float64(len(tp.Machines())); frac < 0.05 {
		t.Fatalf("failed fraction %.3f < 0.05", frac)
	}

	// Repair every affected job; with headroom available, every repair
	// must preserve the original guarantee (no degradation, no eviction).
	results, _ := m.RepairAll()
	if len(results) == 0 {
		t.Fatal("failures displaced no job; scenario is vacuous")
	}
	for _, res := range results {
		if res.Outcome != RepairMoved {
			t.Fatalf("job %d repair outcome %v, want moved", res.Job, res.Outcome)
		}
		if res.EffectiveEps != eps {
			t.Fatalf("job %d effective eps %v, want original %v", res.Job, res.EffectiveEps, eps)
		}
	}
	for _, a := range jobs {
		if got, err := m.EffectiveEps(a.ID); err != nil || got != eps {
			t.Fatalf("job %d effective eps %v, %v; want original %v", a.ID, got, err, eps)
		}
		for _, e := range a.Placement.Entries {
			if failed[e.Machine] {
				t.Fatalf("job %d still has VMs on failed machine %d", a.ID, e.Machine)
			}
		}
	}
	if st := m.FailureStats(); st.DegradedJobs != 0 || st.FailedRepairs != 0 {
		t.Fatalf("unexpected degradation after repair: %+v", st)
	}

	// Monte Carlo re-measurement of the guarantee over the repaired state:
	// on every link, each job contributes min(inside, outside) of its
	// realized per-VM demands — the crossing traffic the SVC model bounds.
	stochastic, links, err := Audit(tp, m.ExportState(), samples, 20140708)
	if err != nil {
		t.Fatal(err)
	}
	if stochastic != len(jobs) {
		t.Fatalf("audited %d stochastic jobs, want %d", stochastic, len(jobs))
	}
	if len(links) == 0 {
		t.Fatal("no link carries crossing demand; scenario is vacuous")
	}
	for _, la := range links {
		if got := float64(la.Overflows) / samples; got > eps+0.03 {
			t.Errorf("link %d: empirical violation %.4f exceeds eps %.2f after repair", la.Link, got, eps)
		}
	}
	t.Logf("repaired %d jobs after failing %d/%d machines; %d links carry crossing demand",
		len(results), len(failed), len(tp.Machines()), len(links))
}
