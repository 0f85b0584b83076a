// Sharded admission throughput: the pod-partitioned control plane (one
// ledger + WAL per aggregation subtree) against the single-WAL manager on
// the same tree. The grid scales pods and clients together — each pod is
// a fixed-size subtree serving two clients — and runs every cell twice:
// BenchmarkShardedAdmission on the router, BenchmarkShardedBaseline on one
// unsharded manager with the same tree and the same 2K clients. Their
// ratio per cell is what decides whether sharding wins a regime.
//
// "fsync" is the host disk as-is: one journal serializes every admission
// through one flush stream, K journals sync in parallel, and a single
// shared device queue decides how much of that parallelism is real.
// "nosync" drops durability and compares the two control planes' CPU
// paths. The shards=1 cells must stay within noise of each other —
// sharding must be free when there is nothing to shard (scripts/bench.sh
// asserts it).
package svc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// benchShardTopology builds a K-pod topology with a constant per-pod
// shape (4 ToRs x 20 machines x 4 slots = 320 slots per pod), so scaling
// shards scales capacity and the control plane together.
func benchShardTopology(b *testing.B, aggs int) *topology.Topology {
	b.Helper()
	cfg := topology.PaperConfig()
	cfg.Aggs = aggs
	cfg.ToRsPerAgg = 4
	topo, err := topology.NewThreeTier(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// benchShardLoop is the shared steady-state workload: each client holds
// up to four jobs and releases the oldest before allocating anew, so
// every op journals exactly one record and the ledger sits at a stable
// mid-load occupancy.
func benchShardLoop(b *testing.B, clients int,
	alloc func() (*core.Allocation, error), release func(core.JobID) error) {
	b.Helper()
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jobs []core.JobID
			for atomic.AddInt64(&next, 1) <= int64(b.N) {
				if len(jobs) >= 4 {
					if err := release(jobs[0]); err != nil {
						b.Error(err)
						return
					}
					jobs = jobs[1:]
					continue
				}
				a, err := alloc()
				if err != nil {
					if errors.Is(err, core.ErrNoCapacity) && len(jobs) > 0 {
						if rerr := release(jobs[0]); rerr != nil {
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
}

// shardGrid runs cell at 1, 2, 4 and 8 pods, on fsync and on nosync;
// -short keeps one smoke cell, shards=4/nosync.
func shardGrid(b *testing.B, cell func(b *testing.B, shards int, noSync bool)) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"fsync", "nosync"} {
			if testing.Short() && (shards != 4 || mode != "nosync") {
				continue
			}
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				cell(b, shards, mode == "nosync")
			})
		}
	}
}

// BenchmarkShardedAdmission reports end-to-end journaled admission ops/s
// on the sharded router with two clients per pod. Admissions plan and
// commit pod-locally (round-robin dispatch), so the K fsync cells have K
// independent group-commit streams in flight.
func BenchmarkShardedAdmission(b *testing.B) {
	shardGrid(b, func(b *testing.B, shards int, noSync bool) {
		r, err := shard.Open(b.TempDir(), benchShardTopology(b, shards), 0.05, shards, shard.Options{NoSync: noSync})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		req := core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}}
		benchShardLoop(b, 2*shards,
			func() (*core.Allocation, error) { return r.AllocateHomog(req) },
			func(id core.JobID) error { return r.Release(id) })
		var batches, records int64
		for i := 0; i < r.Shards(); i++ {
			gs := r.PodJournal(i).GroupCommitStats()
			batches += gs.Batches
			records += gs.Records
		}
		if batches > 0 {
			b.ReportMetric(float64(records)/float64(batches), "recs/batch")
		}
	})
}

// BenchmarkShardedBaseline is the unsharded control of every
// BenchmarkShardedAdmission cell: the same K-pod tree and the same 2K
// clients on one unsharded manager over a single WAL.
func BenchmarkShardedBaseline(b *testing.B) {
	shardGrid(b, func(b *testing.B, shards int, noSync bool) {
		var opts []wal.Option
		if noSync {
			opts = append(opts, wal.WithNoSync())
		}
		mgr, j, err := wal.Recover(b.TempDir(), benchShardTopology(b, shards), 0.05, nil, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		req := core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}}
		benchShardLoop(b, 2*shards,
			func() (*core.Allocation, error) { return mgr.AllocateHomog(req) },
			func(id core.JobID) error { return mgr.Release(id) })
		if gs := j.GroupCommitStats(); gs.Batches > 0 {
			b.ReportMetric(float64(gs.Records)/float64(gs.Batches), "recs/batch")
		}
	})
}
