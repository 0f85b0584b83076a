package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

func openRouter(t *testing.T, dir string, tp *topology.Topology, shards int) *Router {
	t.Helper()
	r, err := Open(dir, tp, 0.1, shards, Options{NoSync: true})
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

// checkCoreLinksIdle fails unless every core link — a pod root's uplink —
// holds an all-zero record, exactly: a job lives in one pod, and its
// crossing demand on that pod's uplink is zero, so nothing ever charges
// one.
func checkCoreLinksIdle(t *testing.T, r *Router) {
	t.Helper()
	for i, l := range r.pods.CoreLinks() {
		if rec := r.Pod(i).ExportState().Links[l]; rec != (core.LinkRecord{}) {
			t.Fatalf("core link %d (pod %d) carries %+v", l, i, rec)
		}
	}
}

// TestOnePodRouterIsTheManager is I10's oracle: on a tree with one
// aggregation subtree the router has one pod, which holds the whole
// tree, so fed the operation sequence an unsharded manager receives it
// must export bit-identical state at every step — job IDs (a capacity
// rejection included), placements, ledger floats, fault overlay,
// counters and idempotency bindings — and again after a reopen.
func TestOnePodRouterIsTheManager(t *testing.T) {
	tp, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 1, ToRsPerAgg: 3, MachinesPerRack: 3, SlotsPerMachine: 2,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := openRouter(t, dir, tp, 1)
	defer func() { r.Close() }()
	base, err := core.NewManager(tp, 0.1)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}

	check := func(step string) {
		t.Helper()
		if got, want := r.ExportState(), base.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: states diverge\nrouter: %+v\n  base: %+v", step, got, want)
		}
		if got, want := r.FreeSlots(), base.FreeSlots(); got != want {
			t.Fatalf("%s: router %d free slots, base %d", step, got, want)
		}
		checkCoreLinksIdle(t, r)
	}
	admit := func(step string, req core.Homogeneous, opts ...core.CallOption) *core.Allocation {
		t.Helper()
		ra, rerr := r.AllocateHomog(req, opts...)
		ba, berr := base.AllocateHomog(req, opts...)
		if (rerr == nil) != (berr == nil) || rerr != nil && !errors.Is(rerr, core.ErrNoCapacity) {
			t.Fatalf("%s: router err %v, base err %v", step, rerr, berr)
		}
		if rerr == nil && (ra.ID != ba.ID || !reflect.DeepEqual(ra.Placement, ba.Placement)) {
			t.Fatalf("%s: router %d@%v, base %d@%v", step, ra.ID, ra.Placement, ba.ID, ba.Placement)
		}
		check(step)
		return ra
	}

	small := homogReq(t, 3, 40, 8)
	first := admit("alloc 1", small)
	admit("alloc 2", small)
	keyed := admit("keyed alloc", small, core.WithIdemKey("k-alloc"))
	if again := admit("keyed replay", small, core.WithIdemKey("k-alloc")); again.ID != keyed.ID {
		t.Fatalf("keyed replay answered job %d, want %d", again.ID, keyed.ID)
	}
	// 9 of 18 slots are taken: a capacity rejection, which must hand its
	// job ID back, so that the next admission gets the manager's ID.
	admit("capacity rejection", homogReq(t, 10, 40, 8))
	admit("alloc after the rejection", small)

	var demands []stats.Normal
	for i := 0; i < 5; i++ {
		demands = append(demands, stats.Normal{Mu: 15 + 5*float64(i), Sigma: 3})
	}
	het := heteroReq(t, demands...)
	rh, rerr := r.AllocateHetero(het)
	bh, berr := base.AllocateHetero(het)
	if rerr != nil || berr != nil || rh.ID != bh.ID || !reflect.DeepEqual(rh.Placement, bh.Placement) {
		t.Fatalf("hetero: router %v (err %v), base %v (err %v)", rh, rerr, bh, berr)
	}
	check("hetero alloc")

	machine := first.Placement.Entries[0].Machine
	raff, rerr := r.FailMachine(machine)
	baff, berr := base.FailMachine(machine)
	if rerr != nil || berr != nil || !reflect.DeepEqual(raff, baff) || len(raff) == 0 {
		t.Fatalf("FailMachine: router %v (err %v), base %v (err %v)", raff, rerr, baff, berr)
	}
	check("fail machine")
	rrep, rerr := r.RepairAll()
	brep, berr := base.RepairAll()
	for i := range rrep {
		rrep[i].Elapsed = 0
	}
	for i := range brep {
		brep[i].Elapsed = 0
	}
	if rerr != nil || berr != nil || !reflect.DeepEqual(rrep, brep) {
		t.Fatalf("RepairAll: router %+v (err %v), base %+v (err %v)", rrep, rerr, brep, berr)
	}
	check("repair all")

	uplink := r.pods.CoreLinks()[0]
	key := core.WithIdemKey("k-fail-link")
	for _, step := range []string{"fail agg uplink", "restore agg uplink", "fault key replayed after the restore", "restore again"} {
		var rerr, berr error
		if strings.HasPrefix(step, "restore") {
			rerr, berr = r.RestoreLink(uplink), base.RestoreLink(uplink)
		} else {
			_, rerr = r.FailLink(uplink, key)
			_, berr = base.FailLink(uplink, key)
		}
		if rerr != nil || berr != nil {
			t.Fatalf("%s: router err %v, base err %v", step, rerr, berr)
		}
		check(step)
	}

	rel := core.WithIdemKey("k-rel")
	for _, step := range []string{"keyed release", "keyed release replayed"} {
		if rerr, berr := r.Release(first.ID, rel), base.Release(first.ID, rel); rerr != nil || berr != nil {
			t.Fatalf("%s: router err %v, base err %v", step, rerr, berr)
		}
		check(step)
	}
	if err := r.Release(999); !errors.Is(err, core.ErrUnknownJob) {
		t.Fatalf("release unknown = %v, want ErrUnknownJob", err)
	}
	if _, err := r.AllocateHomog(small, rel); !errors.Is(err, core.ErrIdemConflict) {
		t.Fatalf("alloc under the release key = %v, want ErrIdemConflict", err)
	}
	check("error paths")

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = openRouter(t, dir, tp, 1)
	check("reopen")
	admit("alloc after the reopen", small)
}

// TestShardedCrashRecovery closes the router mid-life and reopens it:
// the recovered merged state must equal the pre-crash export, a bound
// key must still replay, and the job ID high-water mark must carry over.
func TestShardedCrashRecovery(t *testing.T) {
	tp := testTopo(t, 3)
	dir := t.TempDir()
	r := openRouter(t, dir, tp, 3)

	small := homogReq(t, 4, 30, 6)
	if _, err := r.AllocateHomog(small); err != nil {
		t.Fatalf("alloc: %v", err)
	}
	keyed, err := r.AllocateHomog(small, core.WithIdemKey("k-x"))
	if err != nil {
		t.Fatalf("keyed alloc: %v", err)
	}
	if _, err := r.FailMachine(tp.Machines()[2]); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	before := r.ExportState()
	r.Close()

	r2 := openRouter(t, dir, tp, 3)
	defer r2.Close()
	after := r2.ExportState()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state changed across crash:\nbefore: %+v\n after: %+v", before, after)
	}
	a, err := r2.AllocateHomog(small, core.WithIdemKey("k-x"))
	if err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	if a.ID != keyed.ID {
		t.Fatalf("replayed job %d, want %d", a.ID, keyed.ID)
	}
	fresh, err := r2.AllocateHomog(small)
	if err != nil {
		t.Fatalf("alloc after recovery: %v", err)
	}
	if fresh.ID != keyed.ID+1 {
		t.Fatalf("new job %d after recovery, want %d", fresh.ID, keyed.ID+1)
	}
	if err := r2.Release(keyed.ID); err != nil {
		t.Fatalf("release after recovery: %v", err)
	}
	checkCoreLinksIdle(t, r2)
}

// TestPodFreeSlotsSumToTheManager: a pod manager counts the free slots of
// its own machines only, so on a K-pod tree the pods' counts sum to what
// an unsharded manager holding the router's state reports — through
// admissions, a release and a failed machine, which has none.
func TestPodFreeSlotsSumToTheManager(t *testing.T) {
	tp := testTopo(t, 3)
	r := openRouter(t, t.TempDir(), tp, 3)
	defer r.Close()
	check := func(step string) {
		t.Helper()
		base, err := core.NewManagerFromState(tp, 0.1, r.ExportState())
		if err != nil {
			t.Fatalf("%s: NewManagerFromState: %v", step, err)
		}
		sum := 0
		for i := 0; i < r.Shards(); i++ {
			sum += r.Pod(i).FreeSlots()
		}
		if want := base.FreeSlots(); sum != want || r.FreeSlots() != want {
			t.Fatalf("%s: the pods sum to %d free slots and the router says %d, want the unsharded manager's %d",
				step, sum, r.FreeSlots(), want)
		}
	}
	check("empty")
	small := homogReq(t, 4, 30, 6)
	var jobs []*core.Allocation
	for i := 0; i < 4; i++ {
		a, err := r.AllocateHomog(small)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		jobs = append(jobs, a)
		check(fmt.Sprintf("alloc %d", i))
	}
	if err := r.Release(jobs[0].ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	check("release")
	if _, err := r.FailMachine(jobs[1].Placement.Entries[0].Machine); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	check("fail machine")
}

// TestOpenRefusesStrictDirectory: a directory a strict-mode router wrote
// cross-pod intents into is refused — ErrUnsupportedFormat, naming the
// file — and left exactly as it was: no pod directory created, the log
// byte for byte. An intents.log that is its header alone opens. A job
// held by two pods, which only a cross-pod admission leaves, is refused.
func TestOpenRefusesStrictDirectory(t *testing.T) {
	tp := testTopo(t, 2)
	legacy, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "legacy-v1", "intents.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "intents.log")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, tp, 0.1, 2, Options{NoSync: true}); !errors.Is(err, wal.ErrUnsupportedFormat) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open = %v, want ErrUnsupportedFormat naming %s", err, path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "intents.log" {
		t.Fatalf("the refused directory holds %v, want intents.log alone", entries)
	}
	if after, err := os.ReadFile(path); err != nil || !slices.Equal(after, legacy) {
		t.Fatalf("the refused intents.log was modified (read err %v)", err)
	}

	if err := os.WriteFile(path, legacy[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	r := openRouter(t, dir, tp, 2)
	a, err := r.AllocateHomog(homogReq(t, 2, 30, 6))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Put the job on the other pod too, as a cross-pod admission did.
	other := 1 - topology.NewPods(tp).Of(a.Placement.Entries[0].Machine)
	mgr, j, err := wal.Recover(podDir(dir, other), tp, 0.1,
		[]core.ManagerOption{core.WithPlanSubtree(topology.NewPods(tp).Root(other))}, wal.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.AllocateHomog(homogReq(t, 1, 30, 6), core.WithJobID(a.ID)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(dir, tp, 0.1, 2, Options{NoSync: true}); !errors.Is(err, wal.ErrUnsupportedFormat) || !strings.Contains(err.Error(), fmt.Sprintf("job %d", a.ID)) {
		t.Fatalf("Open over a job on two pods = %v, want ErrUnsupportedFormat naming job %d", err, a.ID)
	}
}

// TestFastModeIdemRace: duplicate idempotency keys racing into different
// pods must collapse to exactly one job, with every racer observing the
// same placement.
func TestFastModeIdemRace(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{})
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

// TestFastModeReleaseRace: racers releasing one job under one key all get
// nil — the unsharded answer: the first releases, the rest replay — and
// the job is released once. The racers that pass the router's table
// together meet at the owning pod, whose own table answers the losers.
func TestFastModeReleaseRace(t *testing.T) {
	tp := testTopo(t, 4)
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{NoSync: true})
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
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{NoSync: true})
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
// ErrBadRequest, and no pod journals it — it reaches the pod's own
// FailMachine/FailLink, which validate before they stage.
func TestFaultTargetValidated(t *testing.T) {
	tp := testTopo(t, 2)
	root := tp.Root()
	tor := tp.Node(tp.Machines()[0]).Parent
	r := openRouter(t, t.TempDir(), tp, 2)
	defer r.Close()
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
			t.Errorf("%s = %v, want ErrBadRequest", name, err)
		}
	}
	for i := 0; i < r.Shards(); i++ {
		if n := r.PodJournal(i).Appended(); n != 0 {
			t.Errorf("pod %d journaled %d records for refused faults", i, n)
		}
	}
	// The key bound nothing, and the router still serves.
	if _, err := r.FailMachine(tp.Machines()[0], core.WithIdemKey("k")); err != nil {
		t.Errorf("FailMachine after the refusals: %v", err)
	}
}

// TestFastModeSpill: the router has no cross-pod path — requests no pod
// can host are rejected, requests the affinity pod cannot host spill to
// a sibling.
func TestFastModeSpill(t *testing.T) {
	tp := testTopo(t, 2)
	r, err := Open(t.TempDir(), tp, 0.1, 2, Options{})
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
	r2, err := Open(t.TempDir(), tp, 0.1, 2, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r2.Close()
	if _, err := r2.AllocateHomog(homogReq(t, 13, 10, 2)); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("oversized = %v, want ErrNoCapacity (the router has no cross-pod path)", err)
	}
}

// TestRepairScoping: a job repairs inside its pod, without touching
// the others.
func TestRepairScoping(t *testing.T) {
	tp := testTopo(t, 3)
	r := openRouter(t, t.TempDir(), tp, 3)
	defer r.Close()

	local, err := r.AllocateHomog(homogReq(t, 3, 30, 6))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	machine := local.Placement.Entries[0].Machine
	if _, err := r.FailMachine(machine); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	results, err := r.RepairAll()
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if len(results) != 1 || results[0].Job != local.ID || results[0].Outcome != core.RepairMoved {
		t.Fatalf("RepairAll = %+v, want job %d moved", results, local.ID)
	}
	pods := topology.NewPods(tp)
	homePod := pods.Of(machine)
	for _, e := range results[0].Placement.Entries {
		if pods.Of(e.Machine) != homePod {
			t.Fatalf("repair moved job %d to machine %d outside pod %d", local.ID, e.Machine, homePod)
		}
	}
	checkCoreLinksIdle(t, r)
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
	r, err := Open(t.TempDir(), tp, 0.1, 4, Options{NoSync: true})
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
	for _, js := range r.ExportState().Jobs {
		for _, e := range js.Placement {
			used += e.Count
		}
	}
	if got := r.FreeSlots(); got+used != totalSlots {
		t.Fatalf("slot conservation broken: free %d + used %d != total %d", got, used, totalSlots)
	}
	checkCoreLinksIdle(t, r)
}
