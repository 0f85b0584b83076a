package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

func newTestManager(t *testing.T, spec topology.Spec, eps float64, opts ...ManagerOption) *Manager {
	t.Helper()
	m, err := NewManager(mustTopo(spec), eps, opts...)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestManagerAllocateRelease(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	req, _ := NewHomogeneous(7, stats.Normal{Mu: 5, Sigma: 2})

	a, err := m.AllocateHomog(req)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if got := m.Running(); got != 1 {
		t.Errorf("Running = %d, want 1", got)
	}
	if got := m.FreeSlots(); got != 12-7 {
		t.Errorf("FreeSlots = %d, want 5", got)
	}
	if m.MaxOccupancy() <= 0 {
		t.Error("MaxOccupancy should be positive while a spanning job runs")
	}

	if err := m.Release(a.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := m.Running(); got != 0 {
		t.Errorf("Running after release = %d, want 0", got)
	}
	if got := m.FreeSlots(); got != 12 {
		t.Errorf("FreeSlots after release = %d, want 12", got)
	}
	if got := m.MaxOccupancy(); got > 1e-9 {
		t.Errorf("MaxOccupancy after release = %v, want ~0", got)
	}
}

func TestManagerReleaseUnknown(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	if err := m.Release(42); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("err = %v, want ErrUnknownJob", err)
	}
}

func TestManagerRejectsAndKeepsState(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	before := m.FreeSlots()
	req, _ := NewHomogeneous(100, stats.Normal{Mu: 5, Sigma: 1})
	if _, err := m.AllocateHomog(req); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if got := m.FreeSlots(); got != before {
		t.Errorf("FreeSlots changed on rejection: %d -> %d", before, got)
	}
	if got := m.Running(); got != 0 {
		t.Errorf("Running = %d, want 0", got)
	}
}

func TestManagerHeteroAlgorithms(t *testing.T) {
	algos := []HeteroAlgorithm{HeteroSubstring, HeteroExact, HeteroFirstFit}
	for _, algo := range algos {
		m := newTestManager(t, smallThreeTier(), 0.05, WithHeteroAlgorithm(algo))
		req := randHetero(stats.NewRand(uint64(algo)), 5, 1, 8)
		a, err := m.AllocateHetero(req)
		if err != nil {
			t.Fatalf("algo %d: AllocateHetero: %v", algo, err)
		}
		if got := a.Placement.TotalVMs(); got != 5 {
			t.Errorf("algo %d: placed %d VMs, want 5", algo, got)
		}
		if err := m.Release(a.ID); err != nil {
			t.Fatalf("algo %d: Release: %v", algo, err)
		}
	}
}

func TestManagerPolicyOption(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05, WithPolicy(FirstFeasible))
	if m.policy != FirstFeasible {
		t.Errorf("policy = %v, want FirstFeasible", m.policy)
	}
	if got, want := m.Epsilon(), 0.05; got != want {
		t.Errorf("Epsilon = %v, want %v", got, want)
	}
}

func TestManagerAllocateReleaseChurn(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	r := stats.NewRand(55)
	var live []JobID
	for round := 0; round < 200; round++ {
		if len(live) > 0 && r.Float64() < 0.45 {
			i := r.IntN(len(live))
			if err := m.Release(live[i]); err != nil {
				t.Fatalf("round %d: Release: %v", round, err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		req := Homogeneous{
			N:      r.UniformInt(1, 6),
			Demand: stats.Normal{Mu: r.UniformRange(1, 6), Sigma: r.UniformRange(0, 2)},
		}
		a, err := m.AllocateHomog(req)
		if err != nil {
			continue
		}
		live = append(live, a.ID)
		// Invariant: every link stays strictly admissible.
		for _, link := range m.Topology().Links() {
			if occ := m.Ledger().Occupancy(link); occ >= 1 {
				t.Fatalf("round %d: link %d occupancy %v >= 1", round, link, occ)
			}
		}
	}
	for _, id := range live {
		if err := m.Release(id); err != nil {
			t.Fatalf("final Release: %v", err)
		}
	}
	if got := m.FreeSlots(); got != 12 {
		t.Errorf("FreeSlots after full churn = %d, want 12", got)
	}
	if got := m.MaxOccupancy(); got > 1e-6 {
		t.Errorf("MaxOccupancy after full churn = %v, want ~0", got)
	}
}

func TestManagerConcurrentUse(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRand(seed)
			for i := 0; i < 30; i++ {
				req := Homogeneous{N: r.UniformInt(1, 4), Demand: stats.Normal{Mu: 1, Sigma: 0.2}}
				a, err := m.AllocateHomog(req)
				if err != nil {
					continue
				}
				if err := m.Release(a.ID); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := m.Running(); got != 0 {
		t.Errorf("Running = %d, want 0", got)
	}
}

func TestManagerDryRun(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	req, _ := NewHomogeneous(7, stats.Normal{Mu: 5, Sigma: 2})
	if !m.CanAllocateHomog(req) {
		t.Error("CanAllocateHomog = false for a feasible request")
	}
	if got := m.Running(); got != 0 {
		t.Errorf("dry run admitted a job: Running = %d", got)
	}
	if got := m.FreeSlots(); got != 12 {
		t.Errorf("dry run consumed slots: FreeSlots = %d", got)
	}
	big, _ := NewHomogeneous(100, stats.Normal{Mu: 5})
	if m.CanAllocateHomog(big) {
		t.Error("CanAllocateHomog = true for an infeasible request")
	}
	hreq := randHetero(stats.NewRand(77), 4, 1, 8)
	if !m.CanAllocateHetero(hreq) {
		t.Error("CanAllocateHetero = false for a feasible request")
	}
	if got := m.Running(); got != 0 {
		t.Errorf("hetero dry run admitted a job: Running = %d", got)
	}
}

func TestManagerOfflineAndByLevel(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	machine := m.Topology().Machines()[0]
	m.SetOffline(machine, true)
	if !m.Ledger().Offline(machine) {
		t.Error("SetOffline did not take effect")
	}
	m.SetOffline(machine, false)
	req, _ := NewHomogeneous(4, stats.Normal{Mu: 5, Sigma: 2})
	if _, err := m.AllocateHomog(req); err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	byLevel := m.MaxOccupancyByLevel()
	if len(byLevel) != 2 {
		t.Fatalf("levels = %d, want 2", len(byLevel))
	}
	for lvl, occ := range byLevel {
		if occ < 0 || occ >= 1 {
			t.Errorf("level %d occupancy %v out of range", lvl, occ)
		}
	}
}

func TestHeadroom(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	req, _ := NewHomogeneous(3, stats.Normal{Mu: 5, Sigma: 2})
	// 12 slots, 3 VMs each, loose bandwidth: 4 copies fit.
	n, err := m.Headroom(req, 0)
	if err != nil {
		t.Fatalf("Headroom: %v", err)
	}
	if n != 4 {
		t.Errorf("Headroom = %d, want 4", n)
	}
	// The exploration must not have touched live state.
	if got := m.FreeSlots(); got != 12 {
		t.Errorf("FreeSlots after Headroom = %d, want 12", got)
	}
	if got := m.Running(); got != 0 {
		t.Errorf("Running after Headroom = %d, want 0", got)
	}
	// A cap is honored.
	if n, err := m.Headroom(req, 2); err != nil || n != 2 {
		t.Errorf("capped Headroom = %d, %v; want 2", n, err)
	}
	// After admitting one for real, headroom shrinks.
	if _, err := m.AllocateHomog(req); err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if n, err := m.Headroom(req, 0); err != nil || n != 3 {
		t.Errorf("Headroom after admission = %d, %v; want 3", n, err)
	}
	if _, err := m.Headroom(Homogeneous{N: 0}, 0); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestLedgerClone(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	link := led.Topology().Machines()[0]
	led.AddDet(link, 10)
	led.UseSlots(link, 2)
	clone := led.Clone()
	clone.AddDet(link, 20)
	clone.UseSlots(link, 1)
	if got := led.Occupancy(link); got != 0.2 {
		t.Errorf("original occupancy changed: %v", got)
	}
	if got := led.FreeSlots(link); got != 3 {
		t.Errorf("original slots changed: %d", got)
	}
	if got := clone.Occupancy(link); got != 0.6 {
		t.Errorf("clone occupancy = %v, want 0.6", got)
	}
}

// TestManagerConcurrentStress hammers one manager with concurrent
// admissions, releases, dry runs, headroom probes and metrics reads.
// Run under -race it proves the reads and the plan cache they share with
// admissions stay under the manager lock; the final drain proves the
// ledger bookkeeping stayed exact throughout.
func TestManagerConcurrentStress(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 3, MachinesPerRack: 10, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		idMu sync.Mutex
		live []JobID
	)
	// Two allocator goroutines: admit and release with churn.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRand(seed)
			for i := 0; i < 60; i++ {
				mu := r.UniformRange(100, 400)
				req := Homogeneous{N: r.UniformInt(2, 12), Demand: stats.Normal{Mu: mu, Sigma: 0.4 * mu}}
				if a, err := m.AllocateHomog(req); err == nil {
					idMu.Lock()
					live = append(live, a.ID)
					idMu.Unlock()
				}
				if r.Float64() < 0.5 {
					idMu.Lock()
					var id JobID
					if len(live) > 0 {
						k := r.IntN(len(live))
						id = live[k]
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					idMu.Unlock()
					if id != 0 {
						if err := m.Release(id); err != nil {
							t.Errorf("Release(%d): %v", id, err)
							return
						}
					}
				}
			}
		}(uint64(1000 + g))
	}
	// Dry-run goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := stats.NewRand(2000)
		for i := 0; i < 80; i++ {
			mu := r.UniformRange(100, 400)
			m.CanAllocateHomog(Homogeneous{N: r.UniformInt(2, 12), Demand: stats.Normal{Mu: mu, Sigma: 0.3 * mu}})
		}
	}()
	// Headroom goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := Homogeneous{N: 6, Demand: stats.Normal{Mu: 200, Sigma: 80}}
		for i := 0; i < 15; i++ {
			if _, err := m.Headroom(req, 4); err != nil {
				t.Errorf("Headroom: %v", err)
				return
			}
		}
	}()
	// Metrics goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			if occ := m.MaxOccupancy(); occ >= 1 {
				t.Errorf("MaxOccupancy %v >= 1 under concurrent churn", occ)
				return
			}
			m.MaxOccupancyByLevel()
			m.FreeSlots()
			m.Running()
		}
	}()
	wg.Wait()

	// Drain and verify the ledger returns exactly to empty.
	for _, id := range live {
		if err := m.Release(id); err != nil {
			t.Fatalf("final Release(%d): %v", id, err)
		}
	}
	if got := m.Running(); got != 0 {
		t.Fatalf("%d jobs still tracked after drain", got)
	}
	if got, want := m.FreeSlots(), topo.TotalSlots(); got != want {
		t.Fatalf("free slots %d after drain, want %d", got, want)
	}
	if occ := m.MaxOccupancy(); occ > 1e-6 {
		t.Fatalf("max occupancy %v after drain, want ~0", occ)
	}
}

// TestManagerSnapshotFreshness: sequential callers must always observe
// their own mutations — a dry run immediately after an admission sees the
// admitted load, and after the release sees it gone.
func TestManagerSnapshotFreshness(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 1, ToRsPerAgg: 1, MachinesPerRack: 2, SlotsPerMachine: 2,
		HostCap: 1000, Oversub: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	req := Homogeneous{N: 4, Demand: stats.Normal{Mu: 300, Sigma: 100}}
	if !m.CanAllocateHomog(req) {
		t.Fatal("empty datacenter should admit the request")
	}
	a, err := m.AllocateHomog(req)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if m.CanAllocateHomog(req) {
		t.Fatal("full datacenter should reject the dry run (stale snapshot?)")
	}
	if err := m.Release(a.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if !m.CanAllocateHomog(req) {
		t.Fatal("drained datacenter should admit again (stale snapshot?)")
	}
}
