// Benchmarks: one per paper table/figure (regenerating the experiment at
// reduced scale and reporting its headline statistic), plus micro and
// ablation benchmarks for the allocators, the admission ledger, and the
// simulator's max-min solver.
//
// Run everything:  go test -bench=. -benchmem
// Full-scale figures are produced by cmd/svcsim -scale paper instead.
package svc_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchScale keeps per-iteration work small enough for repeated timing.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Jobs = 60
	return sc
}

func BenchmarkFig5BatchOversub(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(sc, []float64{2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalCompletion[2][0], "svc-makespan-s")
	}
}

func BenchmarkFig6RunningTimeVsDeviation(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(sc, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanJobTime[2][0], "svc-jobtime-s")
	}
}

func BenchmarkFig7RejectionVsLoad(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(sc, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RejectionRate[2][0], "svc-rejection-%")
	}
}

func BenchmarkFig8Concurrency(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(sc, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanOverPct, "svc/pct-concurrency")
	}
}

func BenchmarkFig9OccupancyCDF(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(sc, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Quantiles[0][0][2], "svc-median-occupancy")
	}
}

func BenchmarkFig10SVCvsTIVCRejection(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(sc, []float64{0.6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RejectionRate[0][0], "svc-rejection-%")
	}
}

func BenchmarkHeteroVsFirstFit(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 40
	for i := 0; i < b.N; i++ {
		res, err := experiments.Hetero(sc, []float64{0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Quantiles[0][0][2], "substring-median-occupancy")
	}
}

// --- micro and ablation benchmarks ---

// paperLedger builds the paper-scale topology with a partially loaded
// ledger, the realistic input for one allocation call.
func paperLedger(b *testing.B) *core.Ledger {
	b.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	led, err := core.NewLedger(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	// Background load: stochastic demands on every ToR uplink and some
	// used slots, so the DP works against non-trivial state.
	r := stats.NewRand(1)
	for _, link := range topo.AtLevel(1) {
		led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(500, 3000), Sigma: r.UniformRange(100, 800)})
	}
	for _, m := range topo.Machines() {
		led.UseSlots(m, r.IntN(3))
	}
	return led
}

// BenchmarkHomogAllocate measures one Algorithm 1 run (N = 49, the paper's
// mean job size) on the 1,000-machine datacenter, for both policies — the
// ablation of the min-max occupancy optimization.
func BenchmarkHomogAllocate(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy core.Policy
	}{
		{"minmax", core.MinMaxOccupancy},
		{"tivc-first-feasible", core.FirstFeasible},
	} {
		b.Run(bc.name, func(b *testing.B) {
			led := paperLedger(b)
			req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AllocateHomog(led, req, bc.policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateHomogSeq is one cold Algorithm 1 plan on the
// 1,000-machine tree — the DP table's time and allocs/op trajectory. The
// Seq suffix is kept so the BENCH_pr*.json series stays comparable.
func BenchmarkAllocateHomogSeq(b *testing.B) {
	led := paperLedger(b)
	req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllocateHomog(led, req, core.MinMaxOccupancy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroSubstringSeq: the same cell for the substring heuristic's
// DP (N = 16 VMs).
func BenchmarkHeteroSubstringSeq(b *testing.B) {
	led := paperLedger(b)
	req := benchHeteroRequest(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllocateHeteroSubstring(led, req, core.MinMaxOccupancy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerConcurrentDryRuns measures CanAllocate dry runs
// hammered from all procs at once. Each one plans on the live ledger under
// the manager lock, so the quiet cell is the cost of readers queueing on
// one another for a warm plan; beside writers every dry run follows an
// admit or a release and recomputes the records on the paths it touched.
// No read copies the ledger: B/op is the 48 B of the dry run's one
// allocation, in both cells.
func BenchmarkManagerConcurrentDryRuns(b *testing.B) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
	if err != nil {
		b.Fatal(err)
	}
	setup := func(b *testing.B) *core.Manager {
		mgr, err := core.NewManager(topo, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		// Background tenants so the snapshot is non-trivial.
		for i := 0; i < 20; i++ {
			if _, err := mgr.AllocateHomog(req); err != nil {
				b.Fatal(err)
			}
		}
		return mgr
	}
	b.Run("quiet", func(b *testing.B) {
		mgr := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if !mgr.CanAllocateHomog(req) {
					b.Fatal("dry run rejected on a lightly loaded datacenter")
				}
			}
		})
	})
	b.Run("beside-writers", func(b *testing.B) {
		mgr := setup(b)
		small, err := core.NewHomogeneous(4, stats.Normal{Mu: 100, Sigma: 40})
		if err != nil {
			b.Fatal(err)
		}
		var held *core.Allocation
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer() // the write is the other side's cost
			if held == nil {
				if held, err = mgr.AllocateHomog(small); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := mgr.Release(held.ID); err != nil {
					b.Fatal(err)
				}
				held = nil
			}
			b.StartTimer()
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("dry run rejected on a lightly loaded datacenter")
			}
		}
	})
}

func benchHeteroRequest(n int) core.Heterogeneous {
	r := stats.NewRand(2)
	demands := make([]stats.Normal, n)
	for i := range demands {
		// Keep each VM's 95th percentile below the 1 Gbps NIC so every
		// request is placeable (the simulator clamps profiles the same
		// way; here the allocators are called directly).
		mu := r.UniformRange(100, 500)
		demands[i] = stats.Normal{Mu: mu, Sigma: 0.4 * r.Float64() * mu}
	}
	req, err := core.NewHeterogeneous(demands)
	if err != nil {
		panic(err)
	}
	return req
}

// BenchmarkHeteroSubstringAllocate measures the substring heuristic on the
// paper-scale datacenter for growing request sizes (the paper's
// O(|V|*Delta*N^4) bound).
func BenchmarkHeteroSubstringAllocate(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(benchName("N", n), func(b *testing.B) {
			led := paperLedger(b)
			req := benchHeteroRequest(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AllocateHeteroSubstring(led, req, core.MinMaxOccupancy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeteroExactAllocate measures the exact exponential DP on a small
// tree — the optimality reference, exponential in N.
func BenchmarkHeteroExactAllocate(b *testing.B) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 1, ToRsPerAgg: 2, MachinesPerRack: 3, SlotsPerMachine: 3,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{6, 9} {
		b.Run(benchName("N", n), func(b *testing.B) {
			led, err := core.NewLedger(topo, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			req := benchHeteroRequest(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AllocateHeteroExact(led, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFirstFitAllocate(b *testing.B) {
	led := paperLedger(b)
	req := benchHeteroRequest(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllocateFirstFit(led, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineScenario measures a full online scenario (admission,
// per-second demand redraw, max-min sharing, release) at quick scale.
func BenchmarkOnlineScenario(b *testing.B) {
	sc := benchScale()
	topo, err := topology.NewThreeTier(sc.Topo)
	if err != nil {
		b.Fatal(err)
	}
	params := workload.Paper(40, 3)
	params.MeanSize = 12
	params.MaxSize = 40
	jobs, err := workload.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]int, len(jobs)) // all arrive at t = 0
	cfg := sim.Config{Topo: topo, Eps: 0.05, Abstraction: sim.SVC}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunOnline(cfg, jobs, arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhiInv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.PhiInv(0.95)
	}
}

func BenchmarkMinOfNormals(b *testing.B) {
	x := stats.Normal{Mu: 300, Sigma: 120}
	y := stats.Normal{Mu: 500, Sigma: 200}
	for i := 0; i < b.N; i++ {
		_ = stats.MinOfNormals(x, y)
	}
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s=%d", prefix, n)
}

// BenchmarkManagerAllocateRelease measures a full admit + release cycle on
// the paper-scale datacenter through the synchronized manager.
func BenchmarkManagerAllocateRelease(b *testing.B) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := mgr.AllocateHomog(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release(a.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailRepair measures one fail -> repair-all -> restore cycle on
// the paper-scale datacenter with background tenants: the latency of
// re-running the pinned allocation DP for every job displaced by a
// machine failure.
func BenchmarkFailRepair(b *testing.B) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := mgr.AllocateHomog(req); err != nil {
			b.Fatal(err)
		}
	}
	machines := topo.Machines()
	var repaired int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machines[i%len(machines)]
		mgr.FailMachine(m)
		results, _ := mgr.RepairAll()
		for _, res := range results {
			if res.Outcome == core.RepairFailed {
				b.Fatalf("repair evicted job %d on a lightly loaded datacenter", res.Job)
			}
			repaired++
		}
		mgr.RestoreMachine(m)
	}
	b.ReportMetric(float64(repaired)/float64(b.N), "repairs/op")
}

// BenchmarkMaxOccupancy measures the Fig. 9 sampling statistic over the
// paper-scale link set.
func BenchmarkMaxOccupancy(b *testing.B) {
	led := paperLedger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = led.MaxOccupancy()
	}
}

// BenchmarkLedgerAdmissionCheck measures one Eq. 4 what-if evaluation.
func BenchmarkLedgerAdmissionCheck(b *testing.B) {
	led := paperLedger(b)
	topo := led.Topology()
	link := topo.AtLevel(1)[0]
	d := stats.Normal{Mu: 400, Sigma: 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = led.OccupancyWith(link, d)
	}
}
