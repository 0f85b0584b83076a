// Admission throughput under concurrency: the one admission path (plan
// under the manager lock, stage, wait for durability outside it) over
// warm and cold plans, with and without fsync, at several client counts.
// Warm cells repeat one request shape, so every plan is a cache hit;
// cold cells give every request a new plan-cache key, so the full DP
// runs each time, serialized by the lock. The fsync cells are where
// group commit earns its keep — while one leader's fsync is in flight,
// every other client plans and stages into the next batch.
package svc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// BenchmarkAdmissionThroughput reports end-to-end journaled admission
// ops/s. Each op is one mutation: clients allocate until they hold four
// jobs, then release the oldest, so the ledger stays near a steady
// mid-load state and every op journals exactly one record.
func BenchmarkAdmissionThroughput(b *testing.B) {
	for _, plans := range []string{"warm", "cold"} {
		for _, syncMode := range []string{"fsync", "nosync"} {
			for _, clients := range []int{1, 2, 8, 32} {
				// -short: one smoke cell per plan kind at the contended
				// point.
				if testing.Short() && (clients != 8 || syncMode != "fsync") {
					continue
				}
				name := fmt.Sprintf("%s/%s/clients=%d", plans, syncMode, clients)
				b.Run(name, func(b *testing.B) {
					benchAdmission(b, plans == "cold", syncMode == "fsync", clients)
				})
			}
		}
	}
}

func benchAdmission(b *testing.B, cold, fsync bool, clients int) {
	walOpts := []wal.Option{wal.WithSnapshotEvery(1 << 30)}
	if !fsync {
		walOpts = append(walOpts, wal.WithNoSync())
	}
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, j, err := wal.Recover(b.TempDir(), topo, 0.05, nil, walOpts...)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()

	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jobs []core.JobID
			for {
				k := atomic.AddInt64(&next, 1)
				if k > int64(b.N) {
					return
				}
				if len(jobs) >= 2 {
					if err := mgr.Release(jobs[0]); err != nil {
						b.Error(err)
						return
					}
					jobs = jobs[1:]
					continue
				}
				req := core.Homogeneous{N: 49, Demand: stats.Normal{Mu: 100, Sigma: 40}}
				if cold {
					// A mean no earlier request used: the plan cache is keyed
					// by demand and holds a dozen shapes, so this one misses.
					req.Demand.Mu += float64(k%(1<<20)) / (1 << 16)
				}
				a, err := mgr.AllocateHomog(req)
				if err != nil {
					if errors.Is(err, core.ErrNoCapacity) && len(jobs) > 0 {
						if rerr := mgr.Release(jobs[0]); rerr != nil {
							b.Error(rerr)
							return
						}
						jobs = jobs[1:]
						continue
					}
					b.Error(err)
					return
				}
				jobs = append(jobs, a.ID)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if gs := j.GroupCommitStats(); gs.Batches > 0 {
		b.ReportMetric(gs.MeanBatch, "recs/batch")
	}
}
