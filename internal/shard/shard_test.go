package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

func testTopo(t *testing.T, aggs int) *topology.Topology {
	t.Helper()
	tp, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: aggs, ToRsPerAgg: 2, MachinesPerRack: 3, SlotsPerMachine: 2,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	return tp
}

func openStrict(t *testing.T, dir string, tp *topology.Topology, shards int) *Router {
	t.Helper()
	r, err := Open(dir, tp, 0.1, shards, Options{Mode: Strict})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r
}

func homogReq(t *testing.T, n int, mu, sigma float64) core.Homogeneous {
	t.Helper()
	req, err := core.NewHomogeneous(n, stats.Normal{Mu: mu, Sigma: sigma})
	if err != nil {
		t.Fatalf("NewHomogeneous: %v", err)
	}
	return req
}

func heteroReq(t *testing.T, demands ...stats.Normal) core.Heterogeneous {
	t.Helper()
	req, err := core.NewHeterogeneous(demands)
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	return req
}

// TestShardedDifferential is the sharding proof: a strict-mode router
// over K pods, fed the exact operation sequence an unsharded manager
// receives, must produce bit-identical state — job IDs, placements,
// ledger floats, fault overlay, counters, and idempotency bindings.
// Both sides plan through core's one admission path (planLocked).
func TestShardedDifferential(t *testing.T) {
	tp := testTopo(t, 3)
	r := openStrict(t, t.TempDir(), tp, 3)
	defer r.Close()
	base, err := core.NewManager(tp, 0.1)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}

	check := func(step string) {
		t.Helper()
		got := r.MergedState()
		want := base.ExportState()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged state diverged\n got: %+v\nwant: %+v", step, got, want)
		}
		if err := r.CheckCoreLinks(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	// Pod-local admissions: one per pod plus a keyed one.
	small := homogReq(t, 3, 40, 8)
	for i := 0; i < 3; i++ {
		ra, rerr := r.AllocateHomog(small)
		ba, berr := base.AllocateHomog(small)
		if (rerr == nil) != (berr == nil) {
			t.Fatalf("alloc %d: router err %v, base err %v", i, rerr, berr)
		}
		if rerr == nil && (ra.ID != ba.ID || !reflect.DeepEqual(ra.Placement, ba.Placement)) {
			t.Fatalf("alloc %d: router %v@%v, base %v@%v", i, ra.ID, ra.Placement, ba.ID, ba.Placement)
		}
		check(fmt.Sprintf("pod-local alloc %d", i))
	}
	if _, err := r.AllocateHomog(small, core.WithIdemKey("k-pod-local")); err != nil {
		t.Fatalf("keyed alloc: %v", err)
	}
	if _, err := base.AllocateHomog(small, core.WithIdemKey("k-pod-local")); err != nil {
		t.Fatalf("keyed base alloc: %v", err)
	}
	check("keyed pod-local alloc")

	// A request bigger than any single pod (12 slots per pod) must span
	// pods: the two-phase path.
	big := homogReq(t, 14, 20, 4)
	ra, err := r.AllocateHomog(big, core.WithIdemKey("k-cross"))
	if err != nil {
		t.Fatalf("cross-pod alloc: %v", err)
	}
	ba, err := base.AllocateHomog(big, core.WithIdemKey("k-cross"))
	if err != nil {
		t.Fatalf("cross-pod base alloc: %v", err)
	}
	if ra.ID != ba.ID || !reflect.DeepEqual(ra.Placement, ba.Placement) {
		t.Fatalf("cross-pod: router %v@%v, base %v@%v", ra.ID, ra.Placement, ba.ID, ba.Placement)
	}
	if r.CrossPodJobs() != 1 {
		t.Fatalf("CrossPodJobs = %d, want 1", r.CrossPodJobs())
	}
	check("cross-pod alloc")

	// Idempotent replay must return the original placement from both.
	ra2, err := r.AllocateHomog(big, core.WithIdemKey("k-cross"))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if _, err := base.AllocateHomog(big, core.WithIdemKey("k-cross")); err != nil {
		t.Fatalf("base replay: %v", err)
	}
	if ra2.ID != ra.ID || !reflect.DeepEqual(ra2.Placement, ra.Placement) {
		t.Fatalf("replayed %v@%v, want %v@%v", ra2.ID, ra2.Placement, ra.ID, ra.Placement)
	}
	check("idempotent replay")

	// Heterogeneous cross-pod admission.
	var demands []stats.Normal
	for i := 0; i < 13; i++ {
		demands = append(demands, stats.Normal{Mu: 15 + float64(i), Sigma: 3})
	}
	het := heteroReq(t, demands...)
	rh, rerr := r.AllocateHetero(het)
	bh, berr := base.AllocateHetero(het)
	if (rerr == nil) != (berr == nil) {
		t.Fatalf("hetero: router err %v, base err %v", rerr, berr)
	}
	if rerr == nil && !reflect.DeepEqual(rh.Placement, bh.Placement) {
		t.Fatalf("hetero placements differ: %v vs %v", rh.Placement, bh.Placement)
	}
	check("hetero alloc")

	// Faults and restores, including a core link.
	machine := tp.Machines()[0]
	if _, err := r.FailMachine(machine); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	if _, err := base.FailMachine(machine); err != nil {
		t.Fatalf("base FailMachine: %v", err)
	}
	raff, baff := r.AffectedJobs(), base.AffectedJobs()
	if !reflect.DeepEqual(raff, baff) {
		t.Fatalf("AffectedJobs: router %v, base %v", raff, baff)
	}
	check("fail machine")

	coreLink := r.pods.CoreLinks()[1]
	if _, err := r.FailLink(coreLink, core.WithIdemKey("k-fail-link")); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	if _, err := base.FailLink(coreLink, core.WithIdemKey("k-fail-link")); err != nil {
		t.Fatalf("base FailLink: %v", err)
	}
	check("fail core link")
	// Replaying the fault key must not re-apply after a restore anywhere.
	if err := r.RestoreLink(coreLink); err != nil {
		t.Fatalf("RestoreLink: %v", err)
	}
	if err := base.RestoreLink(coreLink); err != nil {
		t.Fatalf("base RestoreLink: %v", err)
	}
	if _, err := r.FailLink(coreLink, core.WithIdemKey("k-fail-link")); err != nil {
		t.Fatalf("FailLink replay: %v", err)
	}
	if _, err := base.FailLink(coreLink, core.WithIdemKey("k-fail-link")); err != nil {
		t.Fatalf("base FailLink replay: %v", err)
	}
	check("fault idempotent replay")
	if err := r.RestoreLink(coreLink); err != nil {
		t.Fatalf("RestoreLink: %v", err)
	}
	if err := base.RestoreLink(coreLink); err != nil {
		t.Fatalf("base RestoreLink: %v", err)
	}
	if err := r.RestoreMachine(machine); err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if err := base.RestoreMachine(machine); err != nil {
		t.Fatalf("base RestoreMachine: %v", err)
	}
	check("restore")

	// Release the cross-pod job (two-phase) and a pod-local one.
	if err := r.Release(ra.ID, core.WithIdemKey("k-rel")); err != nil {
		t.Fatalf("cross release: %v", err)
	}
	if err := base.Release(ba.ID, core.WithIdemKey("k-rel")); err != nil {
		t.Fatalf("base cross release: %v", err)
	}
	if err := r.Release(1); err != nil {
		t.Fatalf("release 1: %v", err)
	}
	if err := base.Release(1); err != nil {
		t.Fatalf("base release 1: %v", err)
	}
	check("releases")

	// Unknown-job and conflicting-key errors must mirror too.
	if err := r.Release(999); !errors.Is(err, core.ErrUnknownJob) {
		t.Fatalf("release unknown = %v, want ErrUnknownJob", err)
	}
	if _, err := r.AllocateHomog(small, core.WithIdemKey("k-rel")); !errors.Is(err, core.ErrIdemConflict) {
		t.Fatalf("alloc with release key = %v, want ErrIdemConflict", err)
	}
	check("error paths")
}

// TestShardedCrashRecovery closes the router mid-life and reopens it:
// the recovered merged state must equal the pre-crash export, and the
// strict shadow must keep matching the baseline afterwards.
func TestShardedCrashRecovery(t *testing.T) {
	tp := testTopo(t, 3)
	dir := t.TempDir()
	r := openStrict(t, dir, tp, 3)

	small := homogReq(t, 4, 30, 6)
	big := homogReq(t, 14, 20, 4)
	if _, err := r.AllocateHomog(small); err != nil {
		t.Fatalf("alloc: %v", err)
	}
	cross, err := r.AllocateHomog(big, core.WithIdemKey("k-x"))
	if err != nil {
		t.Fatalf("cross alloc: %v", err)
	}
	if _, err := r.FailMachine(tp.Machines()[2]); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	before := r.MergedState()
	r.Close()

	r2 := openStrict(t, dir, tp, 3)
	defer r2.Close()
	after := r2.MergedState()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state changed across crash:\nbefore: %+v\n after: %+v", before, after)
	}
	if r2.CrossPodJobs() != 1 {
		t.Fatalf("CrossPodJobs = %d after recovery, want 1", r2.CrossPodJobs())
	}
	// The cross-pod idempotency key must survive via the intent log.
	a, err := r2.AllocateHomog(big, core.WithIdemKey("k-x"))
	if err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	if a.ID != cross.ID {
		t.Fatalf("replayed job %d, want %d", a.ID, cross.ID)
	}
	// And the job must still release cleanly across pods.
	if err := r2.Release(cross.ID); err != nil {
		t.Fatalf("release after recovery: %v", err)
	}
	if err := r2.CheckCoreLinks(); err != nil {
		t.Fatal(err)
	}
}

// truncateLastIntent chops the final record off the router's intent log,
// simulating a crash between the last pod commit and the done record.
func truncateLastIntent(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "intents.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Records are length-prefixed frames after an 8-byte magic; walk to
	// the start of the last frame.
	off := 8
	last := off
	for off < len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		last = off
		off += 8 + n
	}
	if err := os.WriteFile(path, data[:last], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInDoubtCommit: crash after every pod committed its sub-frame but
// before the done record. Recovery must resolve to COMMIT — every
// participant holds the job — and preserve the admission.
func TestInDoubtCommit(t *testing.T) {
	tp := testTopo(t, 3)
	dir := t.TempDir()
	r := openStrict(t, dir, tp, 3)
	big := homogReq(t, 14, 20, 4)
	a, err := r.AllocateHomog(big, core.WithIdemKey("k-indoubt"))
	if err != nil {
		t.Fatalf("cross alloc: %v", err)
	}
	r.Close()
	truncateLastIntent(t, dir) // drop the IntentDone

	r2 := openStrict(t, dir, tp, 3)
	defer r2.Close()
	if got := r2.Running(); got != 1 {
		t.Fatalf("Running = %d after in-doubt commit, want 1", got)
	}
	if r2.CrossPodJobs() != 1 {
		t.Fatalf("CrossPodJobs = %d, want 1", r2.CrossPodJobs())
	}
	// The resolved admission keeps its idempotency binding.
	a2, err := r2.AllocateHomog(big, core.WithIdemKey("k-indoubt"))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a2.ID != a.ID {
		t.Fatalf("replayed job %d, want %d", a2.ID, a.ID)
	}
	if err := r2.CheckCoreLinks(); err != nil {
		t.Fatal(err)
	}
}

// TestInDoubtAbort: crash after only SOME pods committed. Recovery must
// abort — releasing the partial sub-frames — and leave no residue on the
// core links.
func TestInDoubtAbort(t *testing.T) {
	tp := testTopo(t, 3)
	dir := t.TempDir()
	r := openStrict(t, dir, tp, 3)
	big := homogReq(t, 14, 20, 4)
	a, err := r.AllocateHomog(big)
	if err != nil {
		t.Fatalf("cross alloc: %v", err)
	}
	r.tabMu.Lock()
	pods := append([]int(nil), r.jobPods[a.ID]...)
	r.tabMu.Unlock()
	if len(pods) < 2 {
		t.Fatalf("job spans %v, want >= 2 pods", pods)
	}
	r.Close()
	truncateLastIntent(t, dir) // drop the IntentDone

	// Retract the job from one participant pod, as if that pod's commit
	// never reached its WAL.
	mgr, j, err := wal.Recover(podDir(dir, pods[0]), tp, 0.1,
		[]core.ManagerOption{core.WithPlanSubtree(topology.NewPods(tp).Root(pods[0]))})
	if err != nil {
		t.Fatalf("open pod %d: %v", pods[0], err)
	}
	if err := mgr.Release(a.ID); err != nil {
		t.Fatalf("retract sub-job: %v", err)
	}
	j.Close()

	r2 := openStrict(t, dir, tp, 3)
	defer r2.Close()
	if got := r2.Running(); got != 0 {
		t.Fatalf("Running = %d after in-doubt abort, want 0", got)
	}
	if err := r2.CheckCoreLinks(); err != nil {
		t.Fatalf("core links leaked after abort: %v", err)
	}
	for i := 0; i < r2.Shards(); i++ {
		if r2.Pod(i).HasJob(a.ID) {
			t.Fatalf("pod %d still holds aborted job %d", i, a.ID)
		}
	}
	// The aborted ID is burned (pods max-merged it); the next admission
	// must get a fresh ID, not resurrect the aborted one.
	na, err := r2.AllocateHomog(homogReq(t, 2, 30, 6))
	if err != nil {
		t.Fatalf("alloc after abort: %v", err)
	}
	if na.ID <= a.ID {
		t.Fatalf("new job %d not past burned id %d", na.ID, a.ID)
	}
}

// TestInDoubtRelease: crash between the release_begin intent and the
// done record, with only some pods released. Recovery finishes the
// release idempotently.
func TestInDoubtRelease(t *testing.T) {
	tp := testTopo(t, 3)
	dir := t.TempDir()
	r := openStrict(t, dir, tp, 3)
	big := homogReq(t, 14, 20, 4)
	a, err := r.AllocateHomog(big)
	if err != nil {
		t.Fatalf("cross alloc: %v", err)
	}
	r.tabMu.Lock()
	pods := append([]int(nil), r.jobPods[a.ID]...)
	r.tabMu.Unlock()
	if err := r.Release(a.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	r.Close()
	truncateLastIntent(t, dir) // drop the IntentReleaseDone

	// Resurrect the sub-job on one pod, as if its release never hit disk.
	sub := homogReq(t, 1, 20, 4)
	mgr, j, err := wal.Recover(podDir(dir, pods[0]), tp, 0.1,
		[]core.ManagerOption{core.WithPlanSubtree(topology.NewPods(tp).Root(pods[0]))})
	if err != nil {
		t.Fatalf("open pod %d: %v", pods[0], err)
	}
	if _, err := mgr.AllocateHomog(sub, core.WithJobID(a.ID)); err != nil {
		t.Fatalf("resurrect sub-job: %v", err)
	}
	j.Close()

	r2 := openStrict(t, dir, tp, 3)
	defer r2.Close()
	if got := r2.Running(); got != 0 {
		t.Fatalf("Running = %d after in-doubt release, want 0", got)
	}
	for i := 0; i < r2.Shards(); i++ {
		if r2.Pod(i).HasJob(a.ID) {
			t.Fatalf("pod %d still holds released job %d", i, a.ID)
		}
	}
	if err := r2.CheckCoreLinks(); err != nil {
		t.Fatal(err)
	}
}

// TestFastModeIdemRace: duplicate idempotency keys racing through the
// fast path must collapse to exactly one job, with every racer observing
// the same placement.
func TestFastModeIdemRace(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{Mode: Fast})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	req := homogReq(t, 3, 30, 6)
	const racers = 16
	results := make([]*core.Allocation, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.AllocateHomog(req, core.WithIdemKey("dup"))
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if results[i].ID != results[0].ID {
			t.Fatalf("racer %d got job %d, racer 0 got %d", i, results[i].ID, results[0].ID)
		}
		if !reflect.DeepEqual(results[i].Placement, results[0].Placement) {
			t.Fatalf("racer %d placement differs", i)
		}
	}
	if got := r.Running(); got != 1 {
		t.Fatalf("Running = %d, want exactly 1", got)
	}
}

// TestFastModeReleaseRace: racers releasing one fast-mode job under one
// key all get nil — the unsharded answer: the first releases, the rest
// replay — and the job is released once. The racers that pass the
// router's table together meet at the owning pod, whose own table answers
// the losers (Manager.Release; CommitExternal would say ErrUnknownJob).
func TestFastModeReleaseRace(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{Mode: Fast, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	for round := 0; round < 20; round++ {
		keep, err := r.AllocateHomog(homogReq(t, 1, 30, 6))
		if err != nil {
			t.Fatalf("round %d: alloc: %v", round, err)
		}
		a, err := r.AllocateHomog(homogReq(t, 3, 30, 6))
		if err != nil {
			t.Fatalf("round %d: alloc: %v", round, err)
		}
		const racers = 8
		errs := make([]error, racers)
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = r.Release(a.ID, core.WithIdemKey(fmt.Sprintf("rel-%d", round)))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: racer %d: %v, want nil", round, i, err)
			}
		}
		if got := r.Running(); got != 1 {
			t.Fatalf("round %d: Running = %d, want 1 (the job the racers did not release)", round, got)
		}
		if err := r.Release(keep.ID); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
	}
	// Released once: a round journals two admissions and two releases,
	// and a racer answered from a table journals nothing.
	var records uint64
	for i := 0; i < r.Shards(); i++ {
		records += uint64(r.PodJournal(i).Appended())
	}
	if records != 20*4 {
		t.Fatalf("the pods journaled %d records, want %d", records, 20*4)
	}
}

// TestFastModeFaultRace: racers failing or restoring one machine under one
// key journal one record per key. The racers that pass the router's table
// together meet at the owning pod, whose FailMachine/RestoreMachine answer
// the losers from the pod's own table under its lock, as the unsharded
// manager would.
func TestFastModeFaultRace(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{Mode: Fast, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	machine := tp.Machines()[0]
	const rounds, racers = 20, 8
	for round := 0; round < rounds; round++ {
		key := core.WithIdemKey(fmt.Sprintf("fault-%d", round))
		errs := make([]error, racers)
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if round%2 == 0 {
					_, errs[i] = r.FailMachine(machine, key)
				} else {
					errs[i] = r.RestoreMachine(machine, key)
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: racer %d: %v", round, i, err)
			}
		}
	}
	var records int
	for i := 0; i < r.Shards(); i++ {
		records += r.PodJournal(i).Appended()
	}
	if records != rounds {
		t.Fatalf("the pods journaled %d records for %d keyed fault ops, want %d", records, rounds, rounds)
	}
	if st := r.FailureStats(); st.MachineFailures != rounds/2 || st.MachineRestores != rounds/2 || st.MachinesDown != 0 {
		t.Fatalf("failure stats %+v, want %d failures and restores, nothing down", st, rounds/2)
	}
}

// TestFaultTargetValidated: the router refuses a fault op whose target is
// not a machine, has no uplink or lies outside the tree with
// ErrBadRequest, in both modes, and no pod journals it — it reaches the
// pod's own FailMachine/FailLink, which validate before they stage.
func TestFaultTargetValidated(t *testing.T) {
	tp := testTopo(t, 2)
	root := tp.Root()
	tor := tp.Node(tp.Machines()[0]).Parent
	for _, mode := range []Mode{Strict, Fast} {
		r, err := Open(t.TempDir(), tp, 0.1, 2, Options{Mode: mode, NoSync: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for name, call := range map[string]func() error{
			"FailMachine(root)":   func() error { _, err := r.FailMachine(root); return err },
			"FailMachine(tor)":    func() error { _, err := r.FailMachine(tor, core.WithIdemKey("k")); return err },
			"RestoreMachine(tor)": func() error { return r.RestoreMachine(tor) },
			"FailLink(root)":      func() error { _, err := r.FailLink(topology.LinkID(root)); return err },
			"RestoreLink(root)":   func() error { return r.RestoreLink(topology.LinkID(root)) },
			"FailMachine(-1)":     func() error { _, err := r.FailMachine(-1); return err },
			"FailLink(past tree)": func() error { _, err := r.FailLink(topology.LinkID(tp.Len())); return err },
		} {
			if err := call(); !errors.Is(err, core.ErrBadRequest) {
				t.Errorf("%v: %s = %v, want ErrBadRequest", mode, name, err)
			}
		}
		for i := 0; i < r.Shards(); i++ {
			if n := r.PodJournal(i).Appended(); n != 0 {
				t.Errorf("%v: pod %d journaled %d records for refused faults", mode, i, n)
			}
		}
		// The key bound nothing, and the router still serves.
		if _, err := r.FailMachine(tp.Machines()[0], core.WithIdemKey("k")); err != nil {
			t.Errorf("%v: FailMachine after the refusals: %v", mode, err)
		}
		r.Close()
	}
}

// TestFastModeSpill: fast mode has no cross-pod path — requests no pod
// can host are rejected, requests the affinity pod cannot host spill to
// a sibling.
func TestFastModeSpill(t *testing.T) {
	tp := testTopo(t, 2)
	r, err := Open(t.TempDir(), tp, 0.1, 2, Options{Mode: Fast})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	// Each pod holds 12 slots. Fill most of both pods with 10-slot jobs
	// (round-robin affinity places one per pod), then 2-slot jobs must
	// spill to whichever pod still fits them.
	ten := homogReq(t, 10, 10, 2)
	if _, err := r.AllocateHomog(ten); err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := r.AllocateHomog(ten); err != nil {
		t.Fatalf("second: %v", err)
	}
	two := homogReq(t, 2, 10, 2)
	if _, err := r.AllocateHomog(two); err != nil {
		t.Fatalf("first filler: %v", err)
	}
	if _, err := r.AllocateHomog(two); err != nil {
		t.Fatalf("second filler: %v", err)
	}
	// 24 total slots, 24 used. Anything more must reject with no pod
	// able to host it.
	if _, err := r.AllocateHomog(homogReq(t, 1, 10, 2)); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("overflow = %v, want ErrNoCapacity", err)
	}
	// A 13-slot request can never fit one pod even when empty.
	r2, err := Open(t.TempDir(), tp, 0.1, 2, Options{Mode: Fast})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r2.Close()
	if _, err := r2.AllocateHomog(homogReq(t, 13, 10, 2)); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("oversized = %v, want ErrNoCapacity (fast mode has no cross-pod path)", err)
	}
}

// TestRepairScoping: pod-local jobs repair inside their pod; cross-pod
// jobs refuse with ErrCrossPodRepair and RepairAll skips them.
func TestRepairScoping(t *testing.T) {
	tp := testTopo(t, 3)
	r := openStrict(t, t.TempDir(), tp, 3)
	defer r.Close()

	local, err := r.AllocateHomog(homogReq(t, 3, 30, 6))
	if err != nil {
		t.Fatalf("local alloc: %v", err)
	}
	cross, err := r.AllocateHomog(homogReq(t, 14, 20, 4))
	if err != nil {
		t.Fatalf("cross alloc: %v", err)
	}
	if _, err := r.RepairJob(cross.ID); !errors.Is(err, ErrCrossPodRepair) {
		t.Fatalf("cross repair = %v, want ErrCrossPodRepair", err)
	}

	// Fail one of the local job's machines; its pod must repair it
	// without touching other pods.
	machine := local.Placement.Entries[0].Machine
	if _, err := r.FailMachine(machine); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	results, err := r.RepairAll()
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	pods := topology.NewPods(tp)
	homePod := pods.Of(machine)
	for _, res := range results {
		if res.Job == cross.ID {
			t.Fatalf("RepairAll touched cross-pod job %d", cross.ID)
		}
		for _, e := range res.Placement.Entries {
			if pods.Of(e.Machine) != homePod {
				t.Fatalf("repair moved job %d to machine %d outside pod %d", res.Job, e.Machine, homePod)
			}
		}
	}
	if err := r.CheckCoreLinks(); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountMismatch: the shard count is structural, not a knob.
func TestShardCountMismatch(t *testing.T) {
	tp := testTopo(t, 3)
	if _, err := Open(t.TempDir(), tp, 0.1, 2, Options{}); !errors.Is(err, ErrShardCount) {
		t.Fatalf("Open with wrong shards = %v, want ErrShardCount", err)
	}
}

// TestFastConcurrentStorm drives concurrent keyless admissions and
// releases across pods beside workers that fail and restore machines of
// one pod and repair what that displaced, and checks conservation at the
// end — the -race job's workload; under -tags invariants every admission
// and moved repair also asserts Eq. 4 on the links it charges (I6).
func TestFastConcurrentStorm(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{Mode: Fast, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	totalSlots := r.FreeSlots()
	const workers = 8
	iters := 30
	if testing.Short() {
		iters = 10
	}
	// A repair may evict a job a worker still holds, or find a job gone
	// that a worker released after the sweep listed it.
	gone := func(err error) bool { return err == nil || errors.Is(err, core.ErrUnknownJob) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := homogReq(t, 1+w%3, 20, 4)
			for i := 0; i < iters; i++ {
				a, err := r.AllocateHomog(req)
				if err != nil {
					continue // capacity contention is expected
				}
				if i%2 == 0 {
					if err := r.Release(a.ID); !gone(err) {
						t.Errorf("release %d: %v", a.ID, err)
						return
					}
				}
			}
		}(w)
	}
	pods := topology.NewPods(tp)
	var pod0 []topology.NodeID
	for _, m := range tp.Machines() {
		if pods.Of(m) == 0 {
			pod0 = append(pod0, m)
		}
	}
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := pod0[(2*i+f)%len(pod0)]
				if _, err := r.FailMachine(m); err != nil {
					t.Errorf("fail %d: %v", m, err)
					return
				}
				if _, err := r.RepairAll(); !gone(err) {
					t.Errorf("repair: %v", err)
					return
				}
				if err := r.RestoreMachine(m); err != nil {
					t.Errorf("restore %d: %v", m, err)
					return
				}
			}
		}(f)
	}
	wg.Wait()

	used := 0
	for _, js := range r.MergedState().Jobs {
		for _, e := range js.Placement {
			used += e.Count
		}
	}
	if got := r.FreeSlots(); got+used != totalSlots {
		t.Fatalf("slot conservation broken: free %d + used %d != total %d", got, used, totalSlots)
	}
	if err := r.CheckCoreLinks(); err != nil {
		t.Fatal(err)
	}
}
