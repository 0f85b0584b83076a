// Plan-stage benchmarks: the DP planning cost isolated from commit,
// journal, and fsync. This is the stage the PR 6 incremental plan cache
// targets — BENCH_pr4's admission grid bundles planning with WAL commit,
// so the cache's effect (sublinear steady-state planning) is measured
// here on its own, with the cache hit/miss/recompute rates reported
// alongside ops/s.
package svc_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
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
//     more than a host link, so no machine takes one and no subtree hosts
//     the request. The empty-link refusal turns it away when the table is
//     bound, before a record is computed.
//   - hetero/miss-reject: the same for the substring DP — a new N = 8 key
//     on every iteration with one VM that no empty host link carries in
//     any substring a machine could hold.
//   - homog/miss-N150: homog/miss at N = 150, the population's tail, where
//     the DP rows are three times as long.
//   - homog/miss-upper: a new N = 30 key on every iteration, planned cold
//     on a half-full tree whose host links each carry one VM of it and no
//     more (upperLedger): every rack has the free slots but none can host
//     the request, so the plan settles at the aggregation level. The
//     capacity bound passes over the racks without computing a record;
//     homog/miss is the cell it bypasses: its racks are ruled out before
//     the bound is read, and every aggregation switch's bound reaches N.
//   - paper-stream: svcbench's plan-miss stream in process — the paper's
//     population, 5 % of it heterogeneous N = 8 jobs, on a datacenter
//     filled to half its slots. Each iteration times one dry run of the
//     next request, then admits it and releases the oldest job untimed,
//     so load moves under every plan and no key repeats (the per-plan
//     cache counters count the admit's plan too).
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
			if _, err := core.AllocateHomog(led, req, core.MinMaxOccupancy); err != nil {
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

	b.Run("homog/miss-upper", func(b *testing.B) {
		led := upperLedger(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := core.NewHomogeneous(30, stats.Normal{Mu: 300, Sigma: 100 + float64(i)/float64(b.N)})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.AllocateHomog(led, req, core.MinMaxOccupancy)
			if err != nil {
				b.Fatal(err)
			}
			if len(p.Entries) != 30 || upperAgg(led, p.Entries[0].Machine) != upperAgg(led, p.Entries[29].Machine) {
				b.Fatalf("placed %v, want 30 machines under one aggregation switch", &p)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})

	b.Run("paper-stream", func(b *testing.B) {
		topo, err := topology.NewThreeTier(topology.PaperConfig())
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := core.NewManager(topo, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		stream, next := paperStream(b, 4096), 0
		var held []core.JobID
		admit := func() *core.Allocation {
			a, err := stream[next%len(stream)].admit(mgr)
			next++
			if err != nil && !errors.Is(err, core.ErrNoCapacity) {
				b.Fatal(err)
			}
			if a != nil {
				held = append(held, a.ID)
			}
			return a
		}
		for mgr.FreeSlots() > topo.TotalSlots()/2 {
			admit()
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stream[next%len(stream)].fits(mgr)
			b.StopTimer()
			if admit() != nil { // a rejected admit skips its release
				if err := mgr.Release(held[0]); err != nil {
					b.Fatal(err)
				}
				held = held[1:]
			}
			b.StartTimer()
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

	b.Run("hetero/miss-reject", func(b *testing.B) {
		mgr := planBenchManager(b)
		// Seven VMs of 400 Mbps, any four of which overflow a 1 Gbps host
		// link, and one of 1.5 Gbps: every substring of at most four VMs
		// that holds it puts more than 1 Gbps on its machine's link.
		demands := make([]stats.Normal, 8)
		for v := range demands {
			demands[v] = stats.Normal{Mu: 400, Sigma: 40}
		}
		demands[7] = stats.Normal{Mu: 1500, Sigma: 100}
		req := core.Heterogeneous{Demands: demands}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Demands[0].Sigma = 40 + float64(i)/float64(b.N)
			if mgr.CanAllocateHetero(req) {
				b.Fatal("plan accepted a VM no host link carries")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})
}

// upperLedger returns the paper datacenter half full: every machine has
// two of its four slots used and a host link carrying 200 Mbps, so it
// takes one VM of homog/miss-upper's requests (a second would cross more
// than 1 Gbps) and a 20-machine rack at most 20 of the 30. The first
// machine under every aggregation switch but the first carries 850 Mbps:
// those switches' occupancy bound loses to the first one's optimum, and a
// plan ensures the first switch only.
func upperLedger(b *testing.B) *core.Ledger {
	b.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	led, err := core.NewLedger(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range topo.Machines() {
		led.UseSlots(m, 2)
		led.AddDet(m, 200)
	}
	for _, agg := range topo.AtLevel(2)[1:] {
		m := agg
		for !topo.Node(m).IsMachine() {
			m = topo.Node(m).Children[0]
		}
		led.AddDet(m, 650)
	}
	return led
}

// upperAgg returns machine m's aggregation switch.
func upperAgg(led *core.Ledger, m topology.NodeID) topology.NodeID {
	return led.Topology().Node(led.Topology().Node(m).Parent).Parent
}

// streamReq is one request of the paper-stream benchmark: hetero when it
// has demands, homog otherwise.
type streamReq struct {
	homog  core.Homogeneous
	hetero core.Heterogeneous
}

func (r streamReq) fits(mgr *core.Manager) bool {
	if r.hetero.N() > 0 {
		return mgr.CanAllocateHetero(r.hetero)
	}
	return mgr.CanAllocateHomog(r.homog)
}

func (r streamReq) admit(mgr *core.Manager) (*core.Allocation, error) {
	if r.hetero.N() > 0 {
		return mgr.AllocateHetero(r.hetero)
	}
	return mgr.AllocateHomog(r.homog)
}

// paperStream returns n requests of the paper's population (Section
// VI-A, internal/workload): every 20th one is a heterogeneous N = 8 job
// whose VMs draw their mean from {100..500} Mbps and their sigma uniform
// in (0, mean), as svcbench's plan-miss mix does.
func paperStream(b *testing.B, n int) []streamReq {
	b.Helper()
	jobs, err := workload.Generate(workload.Paper(n, 38))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(38)
	reqs := make([]streamReq, n)
	for i, j := range jobs {
		if i%20 != 19 {
			reqs[i].homog = core.Homogeneous{N: j.N, Demand: j.Profile}
			continue
		}
		demands := make([]stats.Normal, 8)
		for v := range demands {
			mu := r.Pick([]float64{100, 200, 300, 400, 500})
			demands[v] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
		}
		reqs[i].hetero = core.Heterogeneous{Demands: demands}
	}
	return reqs
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
