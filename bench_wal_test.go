// Durability benchmarks: the write-ahead log's append path (the extra
// latency every admission pays under -state-dir) and full crash recovery
// (snapshot restore plus log replay), at a few log sizes.
package svc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

func benchWALTopology(b *testing.B) *topology.Topology {
	b.Helper()
	cfg := topology.PaperConfig()
	cfg.Aggs = 2
	cfg.ToRsPerAgg = 4
	topo, err := topology.NewThreeTier(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkWALAppend measures one journaled allocate/release pair — two
// log records — against the same pair on an unjournaled manager, so the
// delta is the journal's cost. WithNoSync isolates the encode+write path
// from the device's fsync latency, which would otherwise dominate.
func BenchmarkWALAppend(b *testing.B) {
	for _, sync := range []bool{false, true} {
		name := "nosync"
		if sync {
			name = "fsync"
		}
		b.Run(name, func(b *testing.B) {
			opts := []wal.Option{wal.WithSnapshotEvery(1 << 30)}
			if !sync {
				opts = append(opts, wal.WithNoSync())
			}
			mgr, j, err := wal.Recover(b.TempDir(), benchWALTopology(b), 0.05, nil, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			req := core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}}
			b.ReportAllocs()
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
		})
	}
}

// recoverMixes are the record populations BenchmarkRecover's grid
// replays, on benchWALTopology (2 aggs x 4 ToRs) and up to 10 000
// records. "basic" is the cheapest record there is: 4-VM jobs that fit
// one machine, so no link carries them. "catalogue" is svcbench's churn
// flavours — {2,4,8,16} VMs x {N(100,40), N(300,100)} — on that small
// datacenter half full; its larger jobs span machines and racks and so
// charge up to a dozen links each. "paper" is the paper's job population
// (TestPlacementGolden's, seed 1): N exponential around 49 VMs, clipped
// to 2..200, mu from {100..500}, sigma = rho*mu with rho uniform in
// (0,1), and 5 % heterogeneous N = 8 requests — so every homogeneous
// shape is new, and replay's crossing memo never hits; rejected draws are
// drawn again. The grid's ns/record does not carry over to svcbench's
// restart-recover; the L cell is that shape.
var recoverMixes = []struct {
	name    string
	prefill bool
	draw    func(r *stats.Rand, i int) any // a core.Homogeneous or core.Heterogeneous
}{
	{name: "basic", draw: cycle(core.Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 40}})},
	{name: "catalogue", prefill: true, draw: cycle(func() (reqs []core.Homogeneous) {
		for _, d := range []stats.Normal{{Mu: 100, Sigma: 40}, {Mu: 300, Sigma: 100}} {
			for _, n := range []int{2, 4, 8, 16} {
				reqs = append(reqs, core.Homogeneous{N: n, Demand: d})
			}
		}
		return reqs
	}()...)},
	{name: "paper", draw: func(r *stats.Rand, _ int) any {
		means := []float64{100, 200, 300, 400, 500}
		if r.Float64() < 0.05 {
			demands := make([]stats.Normal, 8)
			for v := range demands {
				mu := r.Pick(means)
				demands[v] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
			}
			return core.Heterogeneous{Demands: demands}
		}
		mu := r.Pick(means)
		return core.Homogeneous{N: min(max(int(math.Round(r.Exp(49))), 2), 200), Demand: stats.Normal{Mu: mu, Sigma: r.Float64() * mu}}
	}},
}

// cycle draws the given requests in turn.
func cycle(reqs ...core.Homogeneous) func(*stats.Rand, int) any {
	return func(_ *stats.Rand, i int) any { return reqs[i%len(reqs)] }
}

// Shape of the snapshot cells: svcbench's restart-recover directory S,
// keyed two-VM jobs on the paper's datacenter until the idempotency
// table holds every binding.
const (
	snapJobs     = 1500
	snapBindings = 50000
)

// snapshotState recovers an empty directory and loads it with the
// snapshot cells' state: snapJobs live jobs, snapBindings bindings, all of
// it still in the log.
func snapshotState(b *testing.B, dir string) (*topology.Topology, *core.Manager, *wal.Journal) {
	b.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, j, err := wal.Recover(dir, topo, 0.05, nil, wal.WithNoSync(), wal.WithSnapshotEvery(1<<30))
	if err != nil {
		b.Fatal(err)
	}
	demands := []stats.Normal{{Mu: 100, Sigma: 40}, {Mu: 300, Sigma: 100}}
	var live []core.JobID
	for i := 0; j.Appended() < snapBindings; i++ {
		if len(live) == snapJobs {
			if err := mgr.Release(live[0], core.WithIdemKey(fmt.Sprintf("bench-rel-%08d", i))); err != nil {
				b.Fatal(err)
			}
			live = live[1:]
		}
		a, err := mgr.AllocateHomog(core.Homogeneous{N: 2, Demand: demands[i%2]}, core.WithIdemKey(fmt.Sprintf("bench-adm-%08d", i)))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, a.ID)
	}
	return topo, mgr, j
}

// BenchmarkRecover measures a cold start from a state directory holding
// one snapshot-free log of the given record count: scan, decode, and
// validated replay into a fresh manager. ns/record, allocs/record and
// B/record (log bytes) are the per-record costs; ns/op is the whole
// restart. The L cell is svcbench's restart-recover directory L: the
// paper's datacenter half full, catalogue churn, 100 000 records. The
// snapshot cells hold the same kind of state in a snapshot instead:
// "checkpoint" is export, encode and write, "load" the cold start from
// what that wrote, and B/job the file's size.
func BenchmarkRecover(b *testing.B) {
	b.Run(fmt.Sprintf("mix=snapshot/jobs=%d/bindings=%d", snapJobs, snapBindings), func(b *testing.B) {
		dir := b.TempDir()
		topo, mgr, j := snapshotState(b, dir)
		defer j.Close()
		b.Run("checkpoint", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			info, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snap-%d.snap", j.Gen())))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(info.Size())/snapJobs, "B/job")
		})
		b.Run("load", func(b *testing.B) {
			if err := mgr.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			// Recover a copy: the live journal above keeps its own files.
			copyDir := b.TempDir()
			for _, name := range []string{fmt.Sprintf("snap-%d.snap", j.Gen()), fmt.Sprintf("wal-%d.log", j.Gen())} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(copyDir, name), data, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m2, j2, err := wal.Recover(copyDir, topo, 0.05, nil, wal.WithNoSync())
				if err != nil {
					b.Fatal(err)
				}
				if m2.Running() != snapJobs {
					b.Fatalf("recovered %d jobs, want %d", m2.Running(), snapJobs)
				}
				b.StopTimer()
				if err := j2.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	})
	for _, mix := range recoverMixes {
		for _, records := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("mix=%s/records=%d", mix.name, records), func(b *testing.B) {
				benchRecoverLog(b, benchWALTopology(b), mix.prefill, mix.draw, records)
			})
		}
	}
	b.Run("L/mix=catalogue/dc=paper/records=100000", func(b *testing.B) {
		topo, err := topology.NewThreeTier(topology.PaperConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchRecoverLog(b, topo, true, recoverMixes[1].draw, 100000)
	})
}

// benchRecoverLog is one record cell of BenchmarkRecover: it writes a
// log of the given record count and times cold starts from it.
func benchRecoverLog(b *testing.B, topo *topology.Topology, prefill bool, draw func(*stats.Rand, int) any, records int) {
	dir := b.TempDir()
	mgr, j, err := wal.Recover(dir, topo, 0.05, nil, wal.WithNoSync(), wal.WithSnapshotEvery(1<<30))
	if err != nil {
		b.Fatal(err)
	}
	// Admit the draws in turn and release oldest-first, so the log
	// alternates admissions and releases around a steady population (half
	// the slots with prefill, none without).
	var live []core.JobID
	r := stats.NewRand(1)
	admit := func(i int) {
		var a *core.Allocation
		err := core.ErrNoCapacity
		for tries := 0; errors.Is(err, core.ErrNoCapacity) && tries < 100; tries++ {
			switch req := draw(r, i).(type) {
			case core.Homogeneous:
				a, err = mgr.AllocateHomog(req)
			case core.Heterogeneous:
				a, err = mgr.AllocateHetero(req)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, a.ID)
	}
	if prefill {
		for i := 0; mgr.Running()*8 < topo.TotalSlots()/2; i++ {
			admit(i)
		}
	}
	for i := 0; j.Appended() < records; i++ {
		admit(i)
		if err := mgr.Release(live[0]); err != nil {
			b.Fatal(err)
		}
		live = live[1:]
	}
	want, appended := mgr.Running(), j.Appended()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		b.Fatal(err)
	}
	// allocs/record counts every allocation of the loop, the journal's
	// Close too: a handful per restart.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m2, j2, err := wal.Recover(dir, topo, 0.05, nil, wal.WithNoSync())
		if err != nil {
			b.Fatal(err)
		}
		if m2.Running() != want || j2.Appended() != appended {
			b.Fatalf("recovered %d jobs from %d records, want %d from %d", m2.Running(), j2.Appended(), want, appended)
		}
		b.StopTimer()
		if err := j2.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&mem)
	perRecord := float64(b.N) * float64(appended)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRecord, "ns/record")
	b.ReportMetric(float64(mem.Mallocs-mallocs)/perRecord, "allocs/record")
	b.ReportMetric(float64(info.Size())/float64(appended), "B/record")
}

// BenchmarkPromote measures Standby.Promote on a standby that holds the
// snapshot cells' state plus a 1 000-record tail and is at the frontier of
// a primary that no longer answers: one refused fetch, the seal's read of
// snapshot and log against the mirror's checksums, the log reopened as
// the journal, the epoch record (no fsync here). The recovery of the
// mirror and the state compare are not in it: they run when a generation
// is mirrored, in the untimed catch-up, and here only under -tags
// invariants.
func BenchmarkPromote(b *testing.B) {
	topo, mgr, j := snapshotState(b, b.TempDir())
	defer j.Close()
	if err := mgr.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a, err := mgr.AllocateHomog(core.Homogeneous{N: 2, Demand: stats.Normal{Mu: 100, Sigma: 40}})
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Release(a.ID); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer() // the primary's state above is not the promotion's to pay for
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		primaryUp := true
		follow := replica.JournalFetcher(j)
		s, err := replica.New(replica.Config{
			Dir: b.TempDir(), Topo: topo, Eps: 0.05, NoSync: true,
			WALOpts: []wal.Option{wal.WithNoSync()},
			Fetch: func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
				if !primaryUp {
					return wal.TailChunk{}, os.ErrDeadlineExceeded
				}
				return follow(ctx, cur, maxBytes, wait)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for caught := false; !caught; {
			if caught, err = s.SyncOnce(ctx, 0); err != nil {
				b.Fatal(err)
			}
		}
		primaryUp = false
		b.StartTimer()
		prom, err := s.Promote(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := prom.Journal.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
