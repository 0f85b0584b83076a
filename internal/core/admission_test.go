package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// mediumThreeTier: 2 aggregates x 3 racks x 3 machines x 4 slots (72 slots
// total); host links 25, rack uplinks 60, aggregate uplinks 120. Big
// enough that placements span subtrees and faults displace real work.
func mediumThreeTier() topology.Spec {
	rack := func() topology.Spec {
		return topology.Spec{UpCap: 60, Children: []topology.Spec{
			{UpCap: 25, Slots: 4},
			{UpCap: 25, Slots: 4},
			{UpCap: 25, Slots: 4},
		}}
	}
	agg := func() topology.Spec {
		return topology.Spec{UpCap: 120, Children: []topology.Spec{rack(), rack(), rack()}}
	}
	return topology.Spec{Children: []topology.Spec{agg(), agg()}}
}

// traceOp is one step of a deterministic admission trace: an allocation
// request (homog or hetero) or a release of the idx-th oldest live job.
type traceOp struct {
	homog  *Homogeneous
	hetero *Heterogeneous
	relIdx int // release when neither request is set
}

// genTrace builds a deterministic mixed trace.
func genTrace(seed uint64, n int) []traceOp {
	r := stats.NewRand(seed)
	ops := make([]traceOp, 0, n)
	live := 0 // an upper bound; release ops mod by the real count
	for i := 0; i < n; i++ {
		switch k := r.IntN(10); {
		case k < 4:
			req, err := NewHomogeneous(2+r.IntN(6), stats.Normal{
				Mu:    r.UniformRange(3, 12),
				Sigma: r.UniformRange(0.5, 4),
			})
			if err != nil {
				panic(err)
			}
			ops = append(ops, traceOp{homog: &req})
			live++
		case k < 7:
			req := randHetero(r, 2+r.IntN(4), 3, 12)
			ops = append(ops, traceOp{hetero: &req})
			live++
		default:
			ops = append(ops, traceOp{relIdx: r.IntN(live + 1)})
			if live > 0 {
				live--
			}
		}
	}
	return ops
}

// runTrace applies the trace to m and returns how many admissions it
// attempted and how many were accepted. Releases address the idx-th
// oldest live job; a rejection must be ErrNoCapacity.
func runTrace(t *testing.T, m *Manager, ops []traceOp) (attempts, admitted int64) {
	t.Helper()
	var live []JobID
	for i, op := range ops {
		var (
			a   *Allocation
			err error
		)
		switch {
		case op.homog != nil:
			a, err = m.AllocateHomog(*op.homog)
		case op.hetero != nil:
			a, err = m.AllocateHetero(*op.hetero)
		default:
			if len(live) == 0 {
				continue
			}
			idx := op.relIdx % len(live)
			if err := m.Release(live[idx]); err != nil {
				t.Fatalf("op %d: Release(%d): %v", i, live[idx], err)
			}
			live = append(live[:idx], live[idx+1:]...)
			continue
		}
		attempts++
		if err != nil {
			if !errors.Is(err, ErrNoCapacity) {
				t.Fatalf("op %d: unexpected admission error: %v", i, err)
			}
			continue
		}
		admitted++
		live = append(live, a.ID)
	}
	return attempts, admitted
}

// TestAdmissionTraceReplaysFromJournal drives a deterministic mixed trace
// through a journaled manager: replaying the journal into a fresh manager
// must land on the live manager's exported state, and the counters must
// say what happened — one plan per admission attempt, Locked equal to the
// admissions that committed, the retired pipeline's counters at zero.
func TestAdmissionTraceReplaysFromJournal(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ops := genTrace(seed, 120)
		m := newTestManager(t, mediumThreeTier(), 0.05)
		j := &fakeJournal{}
		m.SetJournal(j)

		attempts, admitted := runTrace(t, m, ops)

		replayed := newTestManager(t, mediumThreeTier(), 0.05)
		for i, mut := range j.muts {
			if err := replayed.Replay(mut); err != nil {
				t.Fatalf("seed %d: Replay(record %d, op %v): %v", seed, i, mut.Op, err)
			}
		}
		if got, want := replayed.ExportState(), m.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: replayed state differs from live state:\nreplayed %+v\nlive     %+v", seed, got, want)
		}

		s := m.AdmissionStats()
		if s.Locked != admitted || s.Plan.Count != attempts {
			t.Errorf("seed %d: Locked = %d, Plan.Count = %d; want %d admissions, %d plans",
				seed, s.Locked, s.Plan.Count, admitted, attempts)
		}
		if s.FastPath|s.Revalidated|s.Conflicts|s.Retries|s.Fallbacks != 0 {
			t.Errorf("seed %d: retired pipeline counters moved: %+v", seed, s)
		}
	}
}

// TestAdmissionStormInvariants hammers one manager with concurrent
// admissions, releases, fault injection/restore, and repairs (run under
// -race -tags invariants by scripts/check.sh), then checks ledger
// invariants: the exported state revalidates, occupancy stays bounded
// when no repair ran degraded, and releasing everything returns the
// ledger to empty. A repair that finds no placement evicts its job
// (RepairFailed); those are the only jobs allowed to be unknown when the
// test comes to release them.
func TestAdmissionStormInvariants(t *testing.T) {
	m := newTestManager(t, mediumThreeTier(), 0.05)
	topo := m.Topology()

	var (
		mu       sync.Mutex
		live     []JobID
		admitted int64
		evicted  = make(map[JobID]bool) // jobs a repair reported RepairFailed
		unknown  []JobID                // jobs a releaser found already gone
	)
	pushJob := func(id JobID) {
		mu.Lock()
		live = append(live, id)
		admitted++
		mu.Unlock()
	}
	popJob := func(r *rand.Rand) (JobID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return 0, false
		}
		idx := r.Intn(len(live))
		id := live[idx]
		live = append(live[:idx], live[idx+1:]...)
		return id, true
	}

	noteEvictions := func(results []RepairResult) {
		mu.Lock()
		defer mu.Unlock()
		for _, res := range results {
			if res.Outcome == RepairFailed {
				evicted[res.Job] = true
			}
		}
	}

	const (
		allocators   = 4
		releasers    = 2
		opsPerWorker = 60
	)
	var wg sync.WaitGroup

	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRand(uint64(1000 + g))
			for i := 0; i < opsPerWorker; i++ {
				var (
					a   *Allocation
					err error
				)
				if i%2 == 0 {
					var req Homogeneous
					req, err = NewHomogeneous(2+r.IntN(5), stats.Normal{
						Mu: r.UniformRange(3, 10), Sigma: r.UniformRange(0.5, 3)})
					if err == nil {
						a, err = m.AllocateHomog(req)
					}
				} else {
					a, err = m.AllocateHetero(randHetero(r, 2+r.IntN(3), 3, 10))
				}
				if err != nil {
					if !errors.Is(err, ErrNoCapacity) {
						t.Errorf("allocator %d: %v", g, err)
						return
					}
					continue
				}
				pushJob(a.ID)
			}
		}(g)
	}

	for g := 0; g < releasers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < opsPerWorker; i++ {
				id, ok := popJob(r)
				if !ok {
					continue
				}
				switch err := m.Release(id); {
				case errors.Is(err, ErrUnknownJob):
					mu.Lock()
					unknown = append(unknown, id)
					mu.Unlock()
				case err != nil:
					t.Errorf("releaser %d: Release(%d): %v", g, id, err)
					return
				}
			}
		}(g)
	}

	// Fault injector: fail and restore machines and rack uplinks in
	// matched pairs so the storm ends with every element healthy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		machines := topo.Machines()
		for i := 0; i < 20; i++ {
			mach := machines[i%len(machines)]
			if _, err := m.FailMachine(mach); err != nil {
				t.Errorf("FailMachine(%d): %v", mach, err)
				return
			}
			if err := m.RestoreMachine(mach); err != nil {
				t.Errorf("RestoreMachine(%d): %v", mach, err)
				return
			}
			link := topology.LinkID(topo.Node(mach).Parent)
			if _, err := m.FailLink(link); err != nil {
				t.Errorf("FailLink(%d): %v", link, err)
				return
			}
			if err := m.RestoreLink(link); err != nil {
				t.Errorf("RestoreLink(%d): %v", link, err)
				return
			}
		}
	}()

	// Repairer: keep re-placing displaced jobs while faults churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			results, err := m.RepairAll()
			if err != nil {
				t.Errorf("RepairAll: %v", err)
				return
			}
			noteEvictions(results)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// All faults were restored in matched pairs; one final repair pass
	// re-places anything still displaced from the last fault window.
	results, err := m.RepairAll()
	if err != nil {
		t.Fatalf("final RepairAll: %v", err)
	}
	noteEvictions(results)
	for _, id := range unknown {
		if !evicted[id] {
			t.Fatalf("a releaser found job %d gone, and no repair evicted it", id)
		}
	}
	fs := m.FailureStats()
	if fs.MachinesDown != 0 || fs.LinksDown != 0 {
		t.Fatalf("faults not restored after storm: %+v", fs)
	}

	// Invariant: the exported state must pass full construction-time
	// validation (slot accounting, placement consistency) round-trip.
	st := m.ExportState()
	if _, err := NewManagerFromState(topo, m.Epsilon(), st); err != nil {
		t.Fatalf("exported state failed revalidation: %v", err)
	}

	// Invariant: the admission guarantee O_L < 1 holds on every link —
	// unless a degraded repair (which relaxes the bound by design) ran.
	if fs.DegradedRepairs == 0 {
		if occ := m.MaxOccupancy(); occ >= 1 {
			t.Fatalf("max occupancy %v >= 1 with no degraded repairs", occ)
		}
	}

	// Every successful admission is counted exactly once.
	adm := m.AdmissionStats()
	mu.Lock()
	t.Logf("storm: admitted=%d live=%d evicted=%d stats=%+v degraded=%d",
		admitted, len(live), len(evicted), adm, fs.DegradedRepairs)
	mu.Unlock()
	if adm.Locked != admitted {
		t.Errorf("AdmissionStats.Locked = %d, want %d admissions", adm.Locked, admitted)
	}

	// Releasing every remaining job must return the ledger to empty:
	// all slots free, zero occupancy everywhere. The jobs a repair evicted
	// are already gone — exactly those, and no other.
	for _, id := range live {
		switch err := m.Release(id); {
		case evicted[id]:
			if !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("final Release(%d) of an evicted job: %v, want ErrUnknownJob", id, err)
			}
		case err != nil:
			t.Fatalf("final Release(%d): %v", id, err)
		}
	}
	if got := m.Running(); got != 0 {
		t.Fatalf("Running after full release = %d, want 0", got)
	}
	if got, want := m.FreeSlots(), topo.TotalSlots(); got != want {
		t.Fatalf("FreeSlots after full release = %d, want %d", got, want)
	}
	// Tolerance is looser than the single-job tests': hundreds of add/
	// release rounds accumulate float error on the per-link aggregates.
	if occ := m.MaxOccupancy(); occ > 1e-6 {
		t.Fatalf("MaxOccupancy after full release = %v, want ~0", occ)
	}
}

// TestAdmissionAllocCount counts objects where TestAdmissionAllocBudget
// counts bytes: a warm AllocateHomog whose placement spans two machines
// allocated 31 objects (go1.24) while the planner's contributions were
// converted to the journaled type and back on their way into the job; held
// in one type they are copied once, for the job, and a conversion that
// creeps back in fails here. Under -tags invariants checkCachedPlan
// re-runs every planCacheSampleEvery-th cached plan cold, into tables of
// its own, which adds about one object per admission on average; the bound
// allows two more there and stays 30 in every other build.
func TestAdmissionAllocCount(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	req := Homogeneous{N: 6, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	admit := func() {
		if _, err := m.AllocateHomog(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // past the plan cache's second-sight admission
		admit()
	}
	bound := 30.0
	if invariantsEnabled {
		bound += 2
	}
	if got := testing.AllocsPerRun(200, admit); got > bound {
		t.Errorf("a warm AllocateHomog allocates %v objects, want <= %v", got, bound)
	}
}
