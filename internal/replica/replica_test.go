package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// testTopo: 2 racks x 2 machines x 3 slots, the same shape the wal and
// core tests use.
func testTopo(t testing.TB) *topology.Topology {
	t.Helper()
	rack := func() topology.Spec {
		return topology.Spec{UpCap: 40, Children: []topology.Spec{
			{UpCap: 30, Slots: 3},
			{UpCap: 30, Slots: 3},
		}}
	}
	topo, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{rack(), rack()}})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

const testEps = 0.05

func homog(n int, mu, sigma float64) core.Homogeneous {
	return core.Homogeneous{N: n, Demand: stats.Normal{Mu: mu, Sigma: sigma}}
}

func mustPrimary(t testing.TB, dir string) (*core.Manager, *wal.Journal) {
	t.Helper()
	m, j, err := wal.Recover(dir, testTopo(t), testEps, nil, wal.WithNoSync())
	if err != nil {
		t.Fatalf("Recover(%s): %v", dir, err)
	}
	return m, j
}

func newStandby(t testing.TB, j *wal.Journal) *Standby {
	t.Helper()
	s, err := New(Config{
		Dir:    t.TempDir(),
		Topo:   testTopo(t),
		Eps:    testEps,
		Fetch:  JournalFetcher(j),
		NoSync: true,
		WALOpts: []wal.Option{
			wal.WithNoSync(),
		},
	})
	if err != nil {
		t.Fatalf("replica.New: %v", err)
	}
	return s
}

// syncToFrontier pulls until the standby reports caught up.
func syncToFrontier(t testing.TB, s *Standby) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		caught, err := s.SyncOnce(context.Background(), 0)
		if err != nil {
			t.Fatalf("SyncOnce: %v", err)
		}
		if caught {
			return
		}
	}
	t.Fatal("standby never caught up")
}

// workload drives a deterministic mixed op sequence on the primary.
func workload(t testing.TB, m *core.Manager) {
	t.Helper()
	machines := m.Topology().Machines()
	var jobs []core.JobID
	alloc := func(n int, mu, sigma float64, opts ...core.CallOption) {
		if a, err := m.AllocateHomog(homog(n, mu, sigma), opts...); err == nil {
			jobs = append(jobs, a.ID)
		}
	}
	alloc(3, 5, 2, core.WithIdemKey("repl-a"))
	alloc(2, 4, 1)
	alloc(1, 8, 3)
	m.FailMachine(machines[0], core.WithIdemKey("repl-fail"))
	m.RepairAll()
	m.RestoreMachine(machines[0])
	if len(jobs) > 1 {
		m.Release(jobs[1], core.WithIdemKey("repl-rel"))
	}
	m.SetOffline(machines[1], true)
	alloc(2, 3, 1)
	m.SetOffline(machines[1], false)
	links := m.Topology().Links()
	m.FailLink(links[len(links)-1])
	m.RepairAll()
	m.RestoreLink(links[len(links)-1])
	alloc(1, 2, 1)
}

// TestStandbyFollowsBitIdentical: the follower converges to the
// primary's exact state, across commits and a checkpoint rotation.
func TestStandbyFollowsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	m, j := mustPrimary(t, dir)
	defer j.Close()
	workload(t, m)

	s := newStandby(t, j)
	defer s.Close()
	syncToFrontier(t, s)
	if !reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
		t.Fatal("followed state differs from primary")
	}
	if lag := s.Lag(); lag.Bytes != 0 || lag.Records != 0 {
		t.Fatalf("caught-up standby reports lag %+v", lag)
	}

	// Rotation: the follower resets onto the new generation's snapshot.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	workload(t, m)
	syncToFrontier(t, s)
	if !reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
		t.Fatal("followed state differs after checkpoint rotation")
	}
	if cur := s.Cursor(); cur.Gen != j.Gen() {
		t.Fatalf("follower generation %d, primary %d", cur.Gen, j.Gen())
	}
}

// TestStandbyLagReporting: a standby that has not yet pulled sees the
// primary frontier on its first fetch and reports shrinking lag.
func TestStandbyLagReporting(t *testing.T) {
	dir := t.TempDir()
	m, j := mustPrimary(t, dir)
	defer j.Close()
	workload(t, m)

	s := newStandby(t, j)
	defer s.Close()
	if _, err := s.SyncOnce(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// One bootstrap round at default chunk size swallows this small log.
	if lag := s.Lag(); lag.Bytes != 0 {
		t.Fatalf("lag after bootstrap = %+v, want 0 bytes", lag)
	}
	if v := s.Lag().Version; v != s.Manager().Version() {
		t.Fatalf("lag version %d != manager version %d", v, s.Manager().Version())
	}
}

// TestPromoteRefusesWhileLagging: promotion is legal only at the
// durable tail. A standby that knows about durable bytes it has not
// applied must refuse, even when the primary is unreachable for the
// final catch-up fetch.
func TestPromoteRefusesWhileLagging(t *testing.T) {
	dir := t.TempDir()
	m, j := mustPrimary(t, dir)
	defer j.Close()
	// A log of several 64KiB pages, so a capped fetch leaves a tail.
	for i := 0; i < 4000; i++ {
		a, err := m.AllocateHomog(homog(1, 1, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(a.ID); err != nil {
			t.Fatal(err)
		}
	}

	var dead bool
	var dials int
	fetch := func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
		dials++
		if dead {
			return wal.TailChunk{}, errors.New("primary unreachable")
		}
		return j.Tail(ctx, cur, minPage, wait)
	}
	s, err := New(Config{
		Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps,
		Fetch: fetch, NoSync: true,
		WALOpts: []wal.Option{wal.WithNoSync()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One capped page: the standby now knows the frontier but trails it.
	if caught, err := s.SyncOnce(context.Background(), 0); err != nil || caught {
		t.Fatalf("first page: caught=%v err=%v, want partial progress", caught, err)
	}
	if lag := s.Lag(); lag.Bytes == 0 {
		t.Fatal("test setup: standby not lagging")
	}
	dead, dials = true, 0
	if _, err := s.Promote(context.Background()); !errors.Is(err, ErrLagging) {
		t.Fatalf("promote while lagging: %v, want ErrLagging", err)
	}
	if dials != 1 {
		t.Fatalf("promotion dialled a dead primary %d times, want once", dials)
	}

	// Once the primary is reachable again, promotion drains the tail
	// itself, a page a round, and succeeds.
	dead, dials = false, 0
	prom, err := s.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote with the primary back: %v", err)
	}
	if dials < 2 {
		t.Fatalf("test setup: the tail took %d fetches, want several pages", dials)
	}
	defer prom.Journal.Close()
	if !reflect.DeepEqual(prom.Mgr.ExportState(), m.ExportState()) {
		t.Fatal("promoted state differs from primary")
	}
}

// TestPromoteFailureKeepsFollowing: a promotion that fails after the
// mirror was sealed leaves a standby that still follows. It used to leave
// one with no mirror open: the next chunk was replayed, failed to append,
// was fetched again and replayed twice.
func TestPromoteFailureKeepsFollowing(t *testing.T) {
	m, j := mustPrimary(t, t.TempDir())
	defer j.Close()
	workload(t, m)
	s := newStandby(t, j)
	defer s.Close()
	syncToFrontier(t, s)

	// A log of a generation far ahead is not something the mirror wrote:
	// the seal refuses the directory without touching it.
	stray := filepath.Join(s.cfg.Dir, "wal-99.log")
	if err := os.WriteFile(stray, []byte("SVCWAL1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(context.Background()); err == nil || errors.Is(err, ErrPromoted) {
		t.Fatalf("promote over a mirror that holds a file it never wrote: %v, want the seal's error", err)
	}
	if err := os.Remove(stray); err != nil {
		t.Fatal(err)
	}

	// Still a standby: new commits arrive, once each, in memory and in
	// the mirror.
	for i := 0; i < 3; i++ {
		if _, err := m.AllocateHomog(homog(1, 1, 0.5), core.WithIdemKey(fmt.Sprintf("after-failure-%d", i))); err != nil {
			t.Fatal(err)
		}
		if caught, err := s.SyncOnce(context.Background(), 0); err != nil || !caught {
			t.Fatalf("sync after a failed promotion: caught=%v err=%v", caught, err)
		}
	}
	if !reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
		t.Fatal("the follower's state differs from the primary's after a failed promotion")
	}
	prom, err := s.Promote(context.Background())
	if err != nil {
		t.Fatalf("second promotion: %v", err)
	}
	defer prom.Journal.Close()
	if !reflect.DeepEqual(prom.Mgr.ExportState(), m.ExportState()) {
		t.Fatal("promoted state differs from primary")
	}
}

// TestPromoteRefusesDivergedMirror: promotion holds the sealed mirror,
// byte for byte, against what the follower replayed. A snapshot forged
// with a valid checksum and one field changed — one link's variance off
// by an ulp, one binding's job id, one placement count — a log frame
// swapped for another intact frame of the same length, the log one whole
// frame shorter or longer, a log of the next generation beside it: each
// must refuse with ErrDiverged and leave the follower where it was, and
// once the directory is put back the same standby promotes.
func TestPromoteRefusesDivergedMirror(t *testing.T) {
	// forgeSnapshot replaces the mirror's snapshot with one of the same
	// generation and datacenter whose state flip has changed.
	forgeSnapshot := func(flip func(*core.ManagerState)) func(*testing.T, string, *core.ManagerState) {
		return func(t *testing.T, dir string, atCheckpoint *core.ManagerState) {
			flip(atCheckpoint)
			_, fj := mustPrimary(t, t.TempDir())
			if err := fj.Checkpoint(atCheckpoint); err != nil {
				t.Fatal(err)
			}
			if err := fj.Close(); err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(filepath.Join(fj.Dir(), "snap-2.snap"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snap-2.snap"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// rewriteLog replaces the mirror's log with edit's result.
	rewriteLog := func(edit func(log []byte, frames []wal.Frame) []byte) func(*testing.T, string, *core.ManagerState) {
		return func(t *testing.T, dir string, _ *core.ManagerState) {
			path := filepath.Join(dir, "wal-2.log")
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frames, _, err := wal.ScanLog(log)
			if err != nil || len(frames) < 3 {
				t.Fatalf("test setup: mirrored log has %d frames (err %v), want a meta frame and two records", len(frames), err)
			}
			if err := os.WriteFile(path, edit(log, frames), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, tamper := range map[string]func(t *testing.T, dir string, atCheckpoint *core.ManagerState){
		"a link's SumVar by one ulp": forgeSnapshot(func(st *core.ManagerState) {
			for i := range st.Links {
				if v := &st.Links[i].SumVar; *v > 0 {
					*v = math.Nextafter(*v, math.Inf(1))
					return
				}
			}
			panic("test setup: no stochastic load on any link")
		}),
		"a binding's job id": forgeSnapshot(func(st *core.ManagerState) {
			is := st.Idem["repl-a"]
			is.Job++
			st.Idem["repl-a"] = is
		}),
		"a placement count": forgeSnapshot(func(st *core.ManagerState) {
			st.Idem["repl-a"].Placement[0].Count++
		}),
		"a log frame swapped for another intact one of its length": rewriteLog(func(log []byte, frames []wal.Frame) []byte {
			last := frames[len(frames)-1]
			payload := append([]byte(nil), last.Payload...)
			payload[len(payload)-1] ^= 1 // the idempotency key's last byte
			return append(log[:last.End-len(payload)-frameHeader:last.End-len(payload)-frameHeader], frame(payload)...)
		}),
		"the log cut by one whole frame": rewriteLog(func(log []byte, frames []wal.Frame) []byte {
			return log[:frames[len(frames)-2].End]
		}),
		"the log grown by one intact frame": rewriteLog(func(log []byte, frames []wal.Frame) []byte {
			return append(log[:len(log):len(log)], log[frames[len(frames)-2].End:]...)
		}),
		"a log of the next generation beside it": func(t *testing.T, dir string, _ *core.ManagerState) {
			if err := os.WriteFile(filepath.Join(dir, "wal-3.log"), []byte("SVCWAL1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, j := mustPrimary(t, t.TempDir())
			defer j.Close()
			workload(t, m)
			if _, err := m.AllocateHomog(homog(4, 2, 1)); err != nil { // wider than a machine: loads links
				t.Fatal(err)
			}
			atCheckpoint := m.ExportState()
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// A tail behind the snapshot: the last slot taken and given back.
			a, err := m.AllocateHomog(homog(1, 1, 0.5), core.WithIdemKey("tail-admit"))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Release(a.ID, core.WithIdemKey("tail-release")); err != nil {
				t.Fatal(err)
			}
			s := newStandby(t, j)
			defer s.Close()
			syncToFrontier(t, s)
			mirrored := regularFiles(t, s.cfg.Dir)

			tamper(t, s.cfg.Dir, atCheckpoint)
			if _, err := s.Promote(context.Background()); !errors.Is(err, ErrDiverged) {
				t.Fatalf("promote over a mirror with %s: %v, want ErrDiverged", name, err)
			}
			if !reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
				t.Fatal("the refusal moved the follower's state")
			}

			// The directory put back, the standby it still is promotes.
			for name := range regularFiles(t, s.cfg.Dir) {
				if mirrored[name] == nil {
					if err := os.Remove(filepath.Join(s.cfg.Dir, name)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for name, data := range mirrored {
				if err := os.WriteFile(filepath.Join(s.cfg.Dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			prom, err := s.Promote(context.Background())
			if err != nil {
				t.Fatalf("promote with the mirror put back: %v", err)
			}
			defer prom.Journal.Close()
			if !prom.Mgr.ExportState().Equal(m.ExportState()) {
				t.Fatal("promoted state differs from the primary's")
			}
		})
	}
}

// minPage mirrors wal's minimum tail page size (the clamp floor).
const minPage = 64 << 10

// TestPromoteFencesOldPrimary: after promotion, fencing the deposed
// primary's journal vetoes every mutation class it can attempt.
func TestPromoteFencesOldPrimary(t *testing.T) {
	dir := t.TempDir()
	m, j := mustPrimary(t, dir)
	defer j.Close()
	workload(t, m)

	s := newStandby(t, j)
	syncToFrontier(t, s)
	prom, err := s.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer prom.Journal.Close()
	if prom.Epoch <= j.Epoch() {
		t.Fatalf("promotion epoch %d does not supersede primary epoch %d", prom.Epoch, j.Epoch())
	}
	if err := j.Fence(prom.Epoch); err != nil {
		t.Fatalf("fence old primary: %v", err)
	}

	// Every commit class on the deposed primary must be vetoed by its
	// journal seam before any state changes.
	before := m.ExportState()
	if _, err := m.AllocateHomog(homog(1, 1, 0.5)); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("stale allocate: %v, want ErrFenced", err)
	}
	mc := m.Topology().Machines()[0]
	if _, err := m.FailMachine(mc); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("stale fault: %v, want ErrFenced", err)
	}
	if err := m.SetOffline(mc, true); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("stale offline: %v, want ErrFenced", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("stale checkpoint: %v, want ErrFenced", err)
	}
	if got := m.ExportState(); !reflect.DeepEqual(got, before) {
		t.Fatal("a vetoed mutation changed state")
	}

	// The new primary keeps committing at its higher epoch.
	if _, err := prom.Mgr.AllocateHomog(homog(1, 1, 0.5)); err != nil {
		t.Fatalf("new primary allocate: %v", err)
	}

	// The standby is done: further syncs and promotes refuse.
	if _, err := s.SyncOnce(context.Background(), 0); !errors.Is(err, ErrPromoted) {
		t.Fatalf("sync after promotion: %v, want ErrPromoted", err)
	}
	if _, err := s.Promote(context.Background()); !errors.Is(err, ErrPromoted) {
		t.Fatalf("double promote: %v, want ErrPromoted", err)
	}
}

// TestChaosKillPrimaryAtEveryBoundary is the headline failover proof:
// for every record-boundary crash image of the primary's log, a standby
// that replicated that durable prefix and promotes must hold EXACTLY the
// state a direct wal.Recover of the crash image yields — bit for bit —
// and the promoted journal must be usable at a higher epoch.
func TestChaosKillPrimaryAtEveryBoundary(t *testing.T) {
	srcDir := t.TempDir()
	m, j := mustPrimary(t, srcDir)
	workload(t, m)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(srcDir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := wal.ScanLog(data)
	if err != nil {
		t.Fatal(err)
	}

	for k, fr := range frames {
		k, fr := k, fr
		t.Run(fmt.Sprintf("boundary-%02d", k), func(t *testing.T) {
			// The primary's crash image: the durable prefix up to this
			// record boundary.
			crashDir := t.TempDir()
			if err := os.WriteFile(filepath.Join(crashDir, "wal-1.log"), data[:fr.End], 0o644); err != nil {
				t.Fatal(err)
			}
			pm, pj := mustPrimary(t, crashDir)

			// Reference: what direct crash recovery yields.
			want := pm.ExportState()

			// A standby that replicated exactly this durable prefix,
			// then promotes after the primary dies.
			s := newStandby(t, pj)
			syncToFrontier(t, s)
			pj.Close() // the primary is dead; the final fetch fails
			prom, err := s.Promote(context.Background())
			if err != nil {
				t.Fatalf("promote after crash at boundary %d: %v", k, err)
			}
			defer prom.Journal.Close()
			if got := prom.Mgr.ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("promoted state at boundary %d differs from durable-prefix recovery", k)
			}

			// The promoted journal is live: it commits at a higher epoch.
			if prom.Epoch < 2 {
				t.Fatalf("promotion epoch %d, want >= 2", prom.Epoch)
			}
			if a, err := prom.Mgr.AllocateHomog(homog(1, 1, 0.5)); err == nil {
				if err := prom.Mgr.Release(a.ID); err != nil {
					t.Fatalf("post-promotion release: %v", err)
				}
			} else if !errors.Is(err, core.ErrNoCapacity) {
				t.Fatalf("post-promotion allocate: %v", err)
			}
			recoverPromoted(t, s, prom)
		})
	}
}

// TestChaosKillPrimaryMidGroupCommit drives concurrent commits so
// multi-record group-commit batches form, then runs the same
// standby-vs-direct-recovery equivalence at every boundary of the
// resulting log — covering kills that land between the records of one
// batched fsync.
func TestChaosKillPrimaryMidGroupCommit(t *testing.T) {
	srcDir := t.TempDir()
	m, j := mustPrimary(t, srcDir)
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if a, err := m.AllocateHomog(homog(1, 1, 0.3)); err == nil {
					m.Release(a.ID)
				}
			}(g)
		}
		wg.Wait()
		if j.GroupCommitStats().MaxBatch >= 2 {
			break
		}
	}
	if j.GroupCommitStats().MaxBatch < 2 {
		t.Skip("no multi-record batch formed; mid-batch coverage unavailable on this run")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(srcDir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := wal.ScanLog(data)
	if err != nil {
		t.Fatal(err)
	}

	for k, fr := range frames {
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, "wal-1.log"), data[:fr.End], 0o644); err != nil {
			t.Fatal(err)
		}
		pm, pj := mustPrimary(t, crashDir)
		want := pm.ExportState()
		s := newStandby(t, pj)
		syncToFrontier(t, s)
		pj.Close()
		prom, err := s.Promote(context.Background())
		if err != nil {
			t.Fatalf("promote at boundary %d: %v", k, err)
		}
		if got := prom.Mgr.ExportState(); !reflect.DeepEqual(got, want) {
			prom.Journal.Close()
			t.Fatalf("promoted state at boundary %d differs from durable-prefix recovery", k)
		}
		recoverPromoted(t, s, prom)
	}
}

// recoverPromoted is what recovering the mirror at promotion used to
// prove in passing, now that promotion adopts it instead: the promoted
// directory is one a restart recovers. It commits one keyed admission on
// the promoted manager, drops the journal without a checkpoint, and runs
// wal.Recover over the directory: the recovered state is the promoted
// manager's, the promotion's epoch record is read back, one generation is
// on disk, and the keyed admission replays by key.
func recoverPromoted(t *testing.T, s *Standby, prom Promotion) {
	t.Helper()
	const key = "after-promotion"
	a, err := prom.Mgr.AllocateHomog(homog(1, 1, 0.5), core.WithIdemKey(key))
	if err != nil {
		t.Fatalf("keyed admission on the promoted manager: %v", err)
	}
	want := prom.Mgr.ExportState()
	gen := prom.Journal.Gen()
	prom.Mgr.SetJournal(nil)
	if err := prom.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	rm, rj := mustPrimary(t, s.cfg.Dir)
	defer rj.Close()
	if !rm.ExportState().Equal(want) {
		t.Fatal("the promoted directory does not recover to the promoted manager's state")
	}
	if rj.Epoch() != prom.Epoch || rj.Gen() != gen {
		t.Fatalf("recovered at epoch %d in generation %d, promoted at %d in %d", rj.Epoch(), rj.Gen(), prom.Epoch, gen)
	}
	files := map[string]bool{fmt.Sprintf("wal-%d.log", gen): true, fmt.Sprintf("snap-%d.snap", gen): gen > 1}
	for _, name := range names(regularFiles(t, s.cfg.Dir)) {
		if !files[name] {
			t.Fatalf("the promoted directory holds %s beside generation %d", name, gen)
		}
	}
	again, err := rm.AllocateHomog(homog(1, 1, 0.5), core.WithIdemKey(key))
	if err != nil || again.ID != a.ID || !rm.ExportState().Equal(want) {
		t.Fatalf("the keyed admission after recovery: id %d (err %v), want a replay of %d and no new state", again.ID, err, a.ID)
	}
}

// TestStandbyRunFollowsLive: the Run loop keeps a standby converged
// while the primary commits, and stops cleanly on promotion.
func TestStandbyRunFollowsLive(t *testing.T) {
	dir := t.TempDir()
	m, j := mustPrimary(t, dir)
	defer j.Close()

	s := newStandby(t, j)
	s.cfg.PollWait = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	workload(t, m)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Lag().Bytes == 0 && s.Cursor().Off > 0 &&
			reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running standby never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	prom, err := s.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer prom.Journal.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run loop exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run loop did not stop after promotion")
	}
}

// TestStandbyStopsOnNewerFormat: a frame in a record format this binary
// does not know (a newer primary wrote it) stops the standby — SyncOnce
// fails with wal.ErrUnsupportedFormat, Run returns instead of retrying,
// Promote refuses, and neither the cursor nor the mirror moves. Skipping
// the frame, or promoting without it, would drop an acknowledged write.
func TestStandbyStopsOnNewerFormat(t *testing.T) {
	m, j := mustPrimary(t, t.TempDir())
	defer j.Close()
	workload(t, m)

	// Once the standby is at the real frontier, the "primary" serves one
	// more intact frame whose format tag is from the future.
	newer := frame([]byte{0x02, 0xde, 0xad})
	var dead bool
	fetch := func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
		if dead {
			return wal.TailChunk{}, errors.New("primary unreachable")
		}
		chunk, err := j.Tail(ctx, cur, maxBytes, 0)
		if err == nil && !chunk.Reset && len(chunk.Data) == 0 {
			chunk.Data = newer
			chunk.Durable += int64(len(newer))
		}
		return chunk, err
	}
	s, err := New(Config{
		Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps,
		Fetch: fetch, NoSync: true,
		WALOpts: []wal.Option{wal.WithNoSync()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SyncOnce(context.Background(), 0); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	cur := s.Cursor()
	mirror, err := os.ReadFile(filepath.Join(s.cfg.Dir, fmt.Sprintf("wal-%d.log", cur.Gen)))
	if err != nil {
		t.Fatal(err)
	}

	_, err = s.SyncOnce(context.Background(), 0)
	if !errors.Is(err, wal.ErrUnsupportedFormat) || errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("SyncOnce: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Run(ctx); !errors.Is(err, wal.ErrUnsupportedFormat) {
		t.Fatalf("Run: err = %v, want it to stop on ErrUnsupportedFormat", err)
	}
	if _, err := s.Promote(context.Background()); !errors.Is(err, wal.ErrUnsupportedFormat) {
		t.Fatalf("Promote: err = %v, want ErrUnsupportedFormat", err)
	}
	// The refusal outlives the primary: with nothing left to fetch the
	// lag reads zero, but the unreadable frame was acknowledged.
	dead = true
	if _, err := s.Promote(context.Background()); !errors.Is(err, wal.ErrUnsupportedFormat) {
		t.Fatalf("Promote after the primary died: err = %v, want ErrUnsupportedFormat", err)
	}
	if s.Cursor() != cur {
		t.Fatalf("cursor moved past a frame the standby cannot read: %+v -> %+v", cur, s.Cursor())
	}
	after, err := os.ReadFile(filepath.Join(s.cfg.Dir, fmt.Sprintf("wal-%d.log", cur.Gen)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mirror, after) {
		t.Fatal("the mirror took bytes the standby could not replay")
	}
	if !reflect.DeepEqual(s.Manager().ExportState(), m.ExportState()) {
		t.Fatal("the follower's state moved")
	}
}

// TestStandbyStopsOnNewerSnapshotFormat: the same refusal for a reset
// chunk whose snapshot body a newer primary wrote — the standby builds
// nothing from it, writes nothing to its mirror, and stays refused.
func TestStandbyStopsOnNewerSnapshotFormat(t *testing.T) {
	m, j := mustPrimary(t, t.TempDir())
	defer j.Close()
	workload(t, m)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fetch := func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
		chunk, err := j.Tail(ctx, cur, maxBytes, 0)
		if err != nil || chunk.Snap == nil {
			return chunk, err
		}
		// Re-frame the snapshot's body, the image's second frame, under a
		// format tag from the future.
		meta := magicLen + frameHeader + int(binary.LittleEndian.Uint32(chunk.Snap[magicLen:]))
		body := append([]byte{0x02}, chunk.Snap[meta+frameHeader+1:]...)
		snap := binary.LittleEndian.AppendUint32(chunk.Snap[:meta:meta], uint32(len(body)))
		snap = binary.LittleEndian.AppendUint32(snap, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		chunk.Snap = append(snap, body...)
		return chunk, nil
	}
	s, err := New(Config{
		Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps,
		Fetch: fetch, NoSync: true,
		WALOpts: []wal.Option{wal.WithNoSync()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ { // the refusal is sticky
		_, err = s.SyncOnce(context.Background(), 0)
		if !errors.Is(err, wal.ErrUnsupportedFormat) || errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("SyncOnce: err = %v, want ErrUnsupportedFormat and not ErrCorrupt", err)
		}
	}
	if _, err := s.Promote(context.Background()); !errors.Is(err, wal.ErrUnsupportedFormat) {
		t.Fatalf("Promote: err = %v, want ErrUnsupportedFormat", err)
	}
	if files, err := os.ReadDir(s.cfg.Dir); err != nil || len(files) != 0 {
		t.Fatalf("the mirror took files from a stream the standby cannot read: %v (err %v)", files, err)
	}
	if s.Manager().Running() != 0 || s.Cursor() != (wal.Cursor{}) {
		t.Fatal("the follower moved")
	}
}

// TestMirrorFaultIsSticky: the two write failures that leave the mirror's
// directory and the followed manager disagreeing stop the standby for
// good. The round that hits one, every later SyncOnce and Promote answer
// ErrDiverged — from memory, without a fetch, so the records are never
// offered to Manager.Replay a second time: a retried chunk would re-apply
// an idempotent fault record silently.
func TestMirrorFaultIsSticky(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		reset  bool // serve the next fetch as a reset onto the mirror's own generation
		inject func(t *testing.T, s *Standby)
	}{
		// Replayed, then no log to append to: the manager is ahead of it.
		"a continuation chunk that replayed and could not be appended": {
			inject: func(t *testing.T, s *Standby) {
				if err := s.mirror.Close(); err != nil {
					t.Fatal(err)
				}
			},
		},
		// The snapshot overwritten in place, the log's temporary name taken
		// by something a create cannot replace: half a reset, not undoable.
		"a reset onto the mirror's own generation that failed between snapshot and log": {
			reset: true,
			inject: func(t *testing.T, s *Standby) {
				tmp := filepath.Join(s.cfg.Dir, fmt.Sprintf("wal-%d.log.tmp", s.Cursor().Gen), "occupied")
				if err := os.MkdirAll(tmp, 0o755); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, j := mustPrimary(t, t.TempDir())
			defer j.Close()
			workload(t, m)
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var fetches int
			var dead, reset bool
			s, err := New(Config{
				Dir: t.TempDir(), Topo: testTopo(t), Eps: testEps, NoSync: true,
				WALOpts: []wal.Option{wal.WithNoSync()},
				Fetch: func(ctx context.Context, cur wal.Cursor, maxBytes int, wait time.Duration) (wal.TailChunk, error) {
					fetches++
					if dead {
						return wal.TailChunk{}, errors.New("primary unreachable")
					}
					if reset {
						cur = wal.Cursor{}
					}
					return j.Tail(ctx, cur, maxBytes, wait)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			syncToFrontier(t, s)

			// New records, an idempotent one among them, and the failure.
			machine := m.Topology().Machines()[2]
			if _, err := m.FailMachine(machine); err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreMachine(machine); err != nil {
				t.Fatal(err)
			}
			tc.inject(t, s)
			reset = tc.reset
			if _, err := s.SyncOnce(ctx, 0); !errors.Is(err, ErrDiverged) || !errors.Is(err, wal.ErrMirror) {
				t.Fatalf("the round that hit the failure: %v, want ErrDiverged around wal.ErrMirror", err)
			}
			reset = false
			state, version, cur := s.Manager().ExportState(), s.Manager().Version(), s.Cursor()

			check := func(when string) {
				t.Helper()
				before := fetches
				if _, err := s.SyncOnce(ctx, 0); !errors.Is(err, ErrDiverged) {
					t.Fatalf("SyncOnce %s: %v, want ErrDiverged", when, err)
				}
				if _, err := s.Promote(ctx); !errors.Is(err, ErrDiverged) {
					t.Fatalf("Promote %s: %v, want ErrDiverged", when, err)
				}
				if fetches != before {
					t.Fatalf("%s the standby fetched %d more chunks", when, fetches-before)
				}
				if s.Manager().Version() != version || s.Cursor() != cur || !s.Manager().ExportState().Equal(state) {
					t.Fatalf("%s the follower moved", when)
				}
			}
			check("after the fault")
			dead = true
			check("with the primary gone")
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := s.Run(rctx); !errors.Is(err, ErrDiverged) {
				t.Fatalf("Run: %v, want it to stop on ErrDiverged", err)
			}
		})
	}
}

// Sizes of the snapshot image's framing (internal/wal).
const (
	magicLen    = 8
	frameHeader = 8
)

// regularFiles reads every regular file in dir.
func regularFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func names(files map[string][]byte) []string {
	var out []string
	for name := range files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestFailedResetKeepsLastGoodBase: a reset whose files cannot be
// published leaves the mirror holding the generation it held — byte for
// byte, still recovering to the state the follower serves — where it used
// to delete that generation first and write the new one in place. And
// because the old base now survives, the standby must say it lags: the
// primary answered from a generation the cursor never reached, so
// promotion is refused (ErrLagging, not a divergence, not a success on
// stale state) until a reset goes through.
func TestFailedResetKeepsLastGoodBase(t *testing.T) {
	ctx := context.Background()
	m, j := mustPrimary(t, t.TempDir())
	defer j.Close()
	workload(t, m)
	s := newStandby(t, j)
	defer s.Close()
	syncToFrontier(t, s)
	followed := s.Manager().ExportState()
	before := regularFiles(t, s.cfg.Dir)
	if len(before) != 1 || before["wal-1.log"] == nil {
		t.Fatalf("test setup: mirror holds %d files, want wal-1.log alone", len(before))
	}

	// The primary rotates to generation 2 and moves on; the reset onto it
	// finds its log's name taken by something a rename cannot replace.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	workload(t, m)
	obstacle := filepath.Join(s.cfg.Dir, "wal-2.log")
	if err := os.MkdirAll(filepath.Join(obstacle, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // failing twice is no worse than once
		if caught, err := s.SyncOnce(ctx, 0); err == nil || caught || fatalStream(err) {
			t.Fatalf("reset onto an unwritable log: caught=%v err=%v, want a retryable failure", caught, err)
		}
		if after := regularFiles(t, s.cfg.Dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("the failed reset changed the mirror's files: now %v", names(after))
		}
	}
	if !s.Manager().ExportState().Equal(followed) || s.Cursor().Gen != 1 {
		t.Fatal("the failed reset moved the follower")
	}
	copyDir := t.TempDir()
	for name, data := range before {
		if err := os.WriteFile(filepath.Join(copyDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rm, rj := mustPrimary(t, copyDir)
	if !rm.ExportState().Equal(followed) {
		t.Fatal("the mirror no longer recovers to the state the follower serves")
	}
	rj.Close()

	if lag := s.Lag(); lag.Bytes <= 0 || lag.Records <= 0 {
		t.Fatalf("lag %+v behind a generation the standby never reached, want the whole of it", lag)
	}
	if _, err := s.Promote(ctx); !errors.Is(err, ErrLagging) {
		t.Fatalf("promote on the last generation's state: %v, want ErrLagging", err)
	}

	// With the name free again the next reset heals the standby.
	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	syncToFrontier(t, s)
	if lag := s.Lag(); lag.Bytes != 0 || lag.Records != 0 {
		t.Fatalf("lag after the reset went through: %+v", lag)
	}
	if after := regularFiles(t, s.cfg.Dir); len(after) != 2 || after["snap-2.snap"] == nil || after["wal-2.log"] == nil {
		t.Fatalf("the mirror holds %d files, want generation 2 alone", len(after))
	}
	prom, err := s.Promote(ctx)
	if err != nil {
		t.Fatalf("promote after the reset went through: %v", err)
	}
	defer prom.Journal.Close()
	if !prom.Mgr.ExportState().Equal(m.ExportState()) {
		t.Fatal("promoted state differs from the primary's")
	}
}
