package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestFig7RejectionSplit replays SVC(0.02) at 20 % load on the paper scale
// — the cell of EXPERIMENTS.md's Fig. 7 where SVC(0.02) rejects more than
// percentile-VC — and splits its rejections between the empty-link
// refusal (no host link, even empty, carries any count of the job's VMs)
// and the DP. The cell must stay at 61 of 500 (12.2 %), 57 of them the
// refusal's, as EXPERIMENTS.md reports.
func TestFig7RejectionSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 500 jobs on the 1 000-machine tree")
	}
	// The Fig. 7 population and arrivals, as experiments.Fig7 draws them.
	sc := experiments.PaperScale()
	p := workload.Paper(sc.Jobs, sc.Seed)
	p.MeanSize, p.MaxSize, p.FlowSeconds, p.Deviation = sc.MeanJobSize, sc.MaxJobSize, sc.FlowSeconds, -1
	jobs, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.PoissonArrivals(p.Jobs, p.ArrivalRate(0.2, sc.Topo.Slots()), sc.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.NewThreeTier(sc.Topo)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.02
	online, err := sim.RunOnline(sim.Config{Topo: topo, Eps: eps, Abstraction: sim.SVC}, jobs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	led, err := core.NewLedger(topo, eps)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, j := range jobs {
		req, err := core.NewHomogeneous(j.N, sim.ClampProfile(j.Profile, sc.Topo.HostCap))
		if err != nil {
			t.Fatal(err)
		}
		if core.EmptyLinkRefuses(led, req) {
			refused++
		}
	}
	if online.Total != 500 || online.Rejected != 61 || refused != 57 {
		t.Fatalf("SVC(0.02) at 20%% load rejected %d of %d jobs, %d of them by the empty-link refusal; EXPERIMENTS.md has 61 of 500, 57",
			online.Rejected, online.Total, refused)
	}
}
