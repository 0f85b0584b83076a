// Plan-stage benchmarks: the DP planning cost isolated from commit,
// journal, and fsync. This is the stage the PR 6 incremental plan cache
// targets — BENCH_pr4's admission grid bundles planning with WAL commit,
// so the cache's effect (sublinear steady-state planning) is measured
// here on its own, with the cache hit/miss/recompute rates reported
// alongside ops/s.
package svc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// planBenchManager builds the paper-scale manager with background
// tenants, the steady-state input for one planning call.
func planBenchManager(b *testing.B) *core.Manager {
	b.Helper()
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
	return mgr
}

// reportPlanCache emits the cache counter deltas for the timed section
// as per-plan rates (slash-named so bench.sh keeps them in the JSON).
func reportPlanCache(b *testing.B, mgr *core.Manager, before core.AdmissionStats) {
	b.Helper()
	after := mgr.AdmissionStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.PlanCacheHits-before.PlanCacheHits)/n, "hits/plan")
	b.ReportMetric(float64(after.PlanCacheMisses-before.PlanCacheMisses)/n, "misses/plan")
	b.ReportMetric(float64(after.PlanCacheInvalidations-before.PlanCacheInvalidations)/n, "recomputes/plan")
	b.ReportMetric(n/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkPlanOnly measures one planning pass on the 1,000-machine
// datacenter:
//
//   - homog/warm: steady state — the ledger does not move between plans,
//     so every plan is a pure cache hit (the PR 6 headline cell; compare
//     BenchmarkAllocateHomogSeq / BENCH_pr4's ~ms-scale cold DP).
//   - homog/churn: an admit+release cycle every 8 plans, so plans
//     periodically recompute the records the commit paths invalidated.
//   - homog/churn-small: homog/churn for N = 2, a request the first free
//     machine hosts, so a plan reads the machines up to that one and no
//     record above them.
//   - homog/cold: the uncached DP on the same tree, the baseline ratio
//     denominator, reported with the same plans/s metric.
//   - hetero/warm: the substring DP's steady-state cached pass (N = 16).
//   - homog/miss, hetero/miss: a key the cache has never seen on every
//     iteration — svcbench's plan-miss stream in process. The plan runs
//     cold in a pooled table; allocs/op is the number to watch (N = 49 and
//     N = 8, the paper population's mean size and its hetero requests).
//   - homog/miss-reject: a new key on every iteration whose every VM needs
//     more than a host link, so no machine takes one, no subtree hosts
//     the request, and the plan walks every level before it rejects.
//   - homog/miss-N150: homog/miss at N = 150, the population's tail, where
//     the DP rows are three times as long.
func BenchmarkPlanOnly(b *testing.B) {
	b.Run("homog/warm", func(b *testing.B) {
		mgr := planBenchManager(b)
		req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
		if err != nil {
			b.Fatal(err)
		}
		// Two warm-up plans: the cache admits a key on second sight.
		if !mgr.CanAllocateHomog(req) || !mgr.CanAllocateHomog(req) {
			b.Fatal("warmup plan rejected on a lightly loaded datacenter")
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/churn", func(b *testing.B) {
		benchPlanChurn(b, core.Homogeneous{N: 49, Demand: stats.Normal{Mu: 300, Sigma: 150}})
	})

	b.Run("homog/churn-small", func(b *testing.B) {
		benchPlanChurn(b, core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 100, Sigma: 40}})
	})

	b.Run("homog/cold", func(b *testing.B) {
		led := paperLedger(b)
		req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.AllocateHomog(led, req, core.MinMaxOccupancy); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})

	b.Run("hetero/warm", func(b *testing.B) {
		mgr := planBenchManager(b)
		req := benchHeteroRequest(16)
		if !mgr.CanAllocateHetero(req) || !mgr.CanAllocateHetero(req) {
			b.Fatal("warmup plan rejected")
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !mgr.CanAllocateHetero(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/miss", func(b *testing.B) {
		mgr := planBenchManager(b)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 100 + float64(i)/float64(b.N)})
			if err != nil {
				b.Fatal(err)
			}
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/miss-reject", func(b *testing.B) {
		mgr := planBenchManager(b)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := core.NewHomogeneous(49, stats.Normal{Mu: 1500 + float64(i)/float64(b.N), Sigma: 100})
			if err != nil {
				b.Fatal(err)
			}
			if mgr.CanAllocateHomog(req) {
				b.Fatal("plan accepted a VM larger than a host link")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/miss-N150", func(b *testing.B) {
		mgr := planBenchManager(b)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := core.NewHomogeneous(150, stats.Normal{Mu: 300, Sigma: 100 + float64(i)/float64(b.N)})
			if err != nil {
				b.Fatal(err)
			}
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("hetero/miss", func(b *testing.B) {
		mgr := planBenchManager(b)
		req := benchHeteroRequest(8)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Demands[0].Sigma = 10 + float64(i)/float64(b.N)
			if !mgr.CanAllocateHetero(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})
}

// benchPlanChurn times cached dry runs of req with an admit+release cycle
// of a 4-VM job every 8 plans.
func benchPlanChurn(b *testing.B, req core.Homogeneous) {
	mgr := planBenchManager(b)
	churn, err := core.NewHomogeneous(4, stats.Normal{Mu: 200, Sigma: 80})
	if err != nil {
		b.Fatal(err)
	}
	if !mgr.CanAllocateHomog(req) || !mgr.CanAllocateHomog(req) {
		b.Fatal("warmup plan rejected")
	}
	before := mgr.AdmissionStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 7 {
			a, err := mgr.AllocateHomog(churn)
			if err != nil {
				b.Fatal(err)
			}
			if err := mgr.Release(a.ID); err != nil {
				b.Fatal(err)
			}
		}
		if !mgr.CanAllocateHomog(req) {
			b.Fatal("plan rejected on a lightly loaded datacenter")
		}
	}
	b.StopTimer()
	reportPlanCache(b, mgr, before)
}
