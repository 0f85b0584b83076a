// Sharded admission throughput: the pod-partitioned control plane (fast
// mode, one ledger + WAL per aggregation subtree) against the single-WAL
// manager. The grid scales pods and clients together — each pod is a
// fixed-size subtree serving two clients — so the fsync cells measure how
// aggregate durable throughput grows as the fsync stream is sharded:
// one journal serializes every admission through one device queue, K
// journals sync in parallel.
//
// The grid has three sync modes. "fsync" is the host disk as-is — on a
// single shared device whose flush queue serializes concurrent fsyncs
// (measured here: ~2x aggregate at 8 parallel streams), it reports what
// this machine can do, not what the architecture can. "simdisk" models
// the deployment the sharding is for — one log device per pod — by
// replacing the physical fsync with a fixed 150us device wait
// (wal.WithSyncDelay), so the cells isolate the control plane's own
// scaling: with a single WAL every admission serializes behind one
// flush stream regardless of group commit; with K WALs the streams are
// independent. "nosync" drops durability entirely and shows the CPU
// ceiling. BenchmarkShardedBaseline is the matched unsharded control
// (same one-pod topology, same two clients, one unsharded manager) that
// the shards=1 cells must stay within noise of — sharding must be free
// when there is nothing to shard.
package svc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// BenchmarkShardedAdmission reports end-to-end journaled admission ops/s
// on the sharded router at 1, 2, 4, and 8 pods with two clients per pod.
// Fast mode: admissions plan and commit pod-locally (round-robin
// dispatch), so the K fsync cells have K independent group-commit
// streams in flight.
func BenchmarkShardedAdmission(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, syncMode := range []string{"fsync", "simdisk", "nosync"} {
			// -short: one smoke cell at the headline point.
			if testing.Short() && (shards != 4 || syncMode != "simdisk") {
				continue
			}
			name := fmt.Sprintf("shards=%d/%s", shards, syncMode)
			b.Run(name, func(b *testing.B) {
				benchSharded(b, shards, syncMode)
			})
		}
	}
}

// simDiskLatency is the simulated per-device flush wait for the simdisk
// cells — on the order of a real fsync on this class of hardware.
const simDiskLatency = 150 * time.Microsecond

func shardSyncOptions(syncMode string) shard.Options {
	switch syncMode {
	case "fsync":
		return shard.Options{}
	case "simdisk":
		return shard.Options{SyncDelay: simDiskLatency}
	default:
		return shard.Options{NoSync: true}
	}
}

func benchSharded(b *testing.B, shards int, syncMode string) {
	opts := shardSyncOptions(syncMode)
	opts.Mode = shard.Fast
	opts.SnapshotEvery = 1 << 30
	r, err := shard.Open(b.TempDir(), benchShardTopology(b, shards), 0.05, shards, opts)
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
}

// BenchmarkShardedBaseline is the unsharded control for the shards=1
// parity check: the same one-pod topology and two-client workload on a
// plain unsharded manager over a single WAL. scripts/bench.sh asserts
// the shards=1 router stays within noise of this — the router's extra
// routing layer must cost nothing when every admission is pod-local.
func BenchmarkShardedBaseline(b *testing.B) {
	for _, syncMode := range []string{"fsync", "simdisk", "nosync"} {
		if testing.Short() && syncMode != "simdisk" {
			continue
		}
		b.Run(syncMode, func(b *testing.B) {
			benchUnsharded(b, benchShardTopology(b, 1), syncMode, 2)
		})
	}
}

// benchUnsharded runs the shared workload with clients clients on one
// unsharded manager over a single WAL.
func benchUnsharded(b *testing.B, topo *topology.Topology, syncMode string, clients int) {
	walOpts := []wal.Option{wal.WithSnapshotEvery(1 << 30)}
	switch syncMode {
	case "simdisk":
		walOpts = append(walOpts, wal.WithSyncDelay(simDiskLatency))
	case "nosync":
		walOpts = append(walOpts, wal.WithNoSync())
	}
	mgr, j, err := wal.Recover(b.TempDir(), topo, 0.05, nil, walOpts...)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	req := core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	benchShardLoop(b, clients,
		func() (*core.Allocation, error) { return mgr.AllocateHomog(req) },
		func(id core.JobID) error { return mgr.Release(id) })
}

// BenchmarkStrictRouter measures strict mode, which no other benchmark
// runs: a strict router and an unsharded manager on the same K-pod tree,
// two clients per pod, the workload above. Strict plans every admission
// on its shadow of the whole tree and commits it under opMu, which it
// holds across the pod's fsync wait, so its admissions never share a
// group commit. It asserts nothing: scripts/bench.sh's parity and scaling
// checks parse BenchmarkSharded* only.
func BenchmarkStrictRouter(b *testing.B) {
	for _, shards := range []int{2, 4} {
		for _, syncMode := range []string{"fsync", "nosync"} {
			if testing.Short() && (shards != 2 || syncMode != "nosync") {
				continue
			}
			name := fmt.Sprintf("shards=%d/%s", shards, syncMode)
			b.Run(name+"/strict", func(b *testing.B) {
				opts := shardSyncOptions(syncMode)
				opts.Mode = shard.Strict
				opts.SnapshotEvery = 1 << 30
				r, err := shard.Open(b.TempDir(), benchShardTopology(b, shards), 0.05, shards, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				req := core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}}
				benchShardLoop(b, 2*shards,
					func() (*core.Allocation, error) { return r.AllocateHomog(req) },
					func(id core.JobID) error { return r.Release(id) })
			})
			b.Run(name+"/unsharded", func(b *testing.B) {
				benchUnsharded(b, benchShardTopology(b, shards), syncMode, 2*shards)
			})
		}
	}
}
