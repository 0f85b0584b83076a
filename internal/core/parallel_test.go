package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// loadedThreeTier builds a mid-size three-tier datacenter (256 machines)
// with seeded background load so the DP runs against non-trivial state.
func loadedThreeTier(t testing.TB) *Ledger {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 4, ToRsPerAgg: 4, MachinesPerRack: 16, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(7)
	for _, link := range topo.AtLevel(1) {
		led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(200, 2000), Sigma: r.UniformRange(50, 600)})
	}
	for _, m := range topo.Machines() {
		led.UseSlots(m, r.IntN(3))
	}
	return led
}

// TestParallelHomogMatchesSequential: the level-parallel DP must produce
// bit-identical placements to the sequential path for every policy, on a
// large loaded topology across a sweep of request sizes.
func TestParallelHomogMatchesSequential(t *testing.T) {
	led := loadedThreeTier(t)
	for _, policy := range []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack} {
		for _, n := range []int{1, 2, 5, 17, 49, 80, 200} {
			req := Homogeneous{N: n, Demand: stats.Normal{Mu: 300, Sigma: 150}}
			pSeq, _, errSeq := AllocateHomogWorkers(led, req, policy, 1)
			pPar, _, errPar := AllocateHomogWorkers(led, req, policy, 4)
			if (errSeq == nil) != (errPar == nil) {
				t.Fatalf("policy %v N=%d: feasibility differs: seq=%v par=%v", policy, n, errSeq, errPar)
			}
			if errSeq != nil {
				continue
			}
			if pSeq.String() != pPar.String() {
				t.Fatalf("policy %v N=%d: placements differ:\nseq: %v\npar: %v", policy, n, &pSeq, &pPar)
			}
		}
	}
}

// TestParallelHomogRandomTopologies fuzzes the equivalence across random
// topologies, background loads and worker counts, exercising pooled
// table reuse across calls with different tree shapes.
func TestParallelHomogRandomTopologies(t *testing.T) {
	r := stats.NewRand(31337)
	compared := 0
	for trial := 0; trial < 120; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, link := range tp.Links() {
			if r.Float64() < 0.4 {
				led.AddDet(link, r.UniformRange(0, 0.4*tp.LinkCap(link)))
			}
		}
		n := r.UniformInt(1, min(10, tp.TotalSlots()))
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(1, 15), Sigma: r.UniformRange(0, 6)}}
		policy := []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack}[trial%3]
		workers := 2 + trial%3
		pSeq, _, errSeq := AllocateHomogWorkers(led, req, policy, 1)
		pPar, contribs, errPar := AllocateHomogWorkers(led, req, policy, workers)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("trial %d: feasibility differs: seq=%v par=%v", trial, errSeq, errPar)
		}
		if errSeq != nil {
			continue
		}
		compared++
		if pSeq.String() != pPar.String() {
			t.Fatalf("trial %d (policy %v, workers %d): placements differ:\nseq: %v\npar: %v",
				trial, policy, workers, &pSeq, &pPar)
		}
		if verr := ValidatePlacement(led, contribs, &pPar, n); verr != nil {
			t.Fatalf("trial %d: parallel placement invalid: %v", trial, verr)
		}
	}
	if compared < 40 {
		t.Fatalf("only %d of 120 trials admitted; generator too hostile", compared)
	}
}

// TestParallelSubstringMatchesSequential: same equivalence contract for
// the heterogeneous substring heuristic.
func TestParallelSubstringMatchesSequential(t *testing.T) {
	led := loadedThreeTier(t)
	r := stats.NewRand(99)
	for _, n := range []int{1, 3, 6, 10, 16} {
		req := randHetero(r, n, 100, 500)
		pSeq, _, errSeq := AllocateHeteroSubstringWorkers(led, req, MinMaxOccupancy, 1)
		pPar, _, errPar := AllocateHeteroSubstringWorkers(led, req, MinMaxOccupancy, 4)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("N=%d: feasibility differs: seq=%v par=%v", n, errSeq, errPar)
		}
		if errSeq != nil {
			continue
		}
		if pSeq.String() != pPar.String() {
			t.Fatalf("N=%d: placements differ:\nseq: %v\npar: %v", n, &pSeq, &pPar)
		}
	}
}

// TestCrossingTable: the table must equal direct CrossingHomog evaluation
// entry for entry, also when it is rebuilt into a buffer it used before.
func TestCrossingTable(t *testing.T) {
	d := stats.Normal{Mu: 250, Sigma: 80}
	table := crossingTableHomog(nil, stats.Normal{Mu: 1}, 30)
	for pass := 0; pass < 2; pass++ { // both passes overwrite a used buffer
		table = crossingTableHomog(table[:0], d, 12)
		if len(table) != 13 {
			t.Fatalf("pass %d: table has %d entries, want 13", pass, len(table))
		}
		for m := range table {
			want := CrossingHomog(d, m, 12)
			if table[m] != want {
				t.Fatalf("pass %d: table[%d] = %v, want %v", pass, m, table[m], want)
			}
		}
	}
}

// TestManagerConcurrentStress hammers one manager with concurrent
// admissions, releases, dry runs, headroom probes and metrics reads.
// Run under -race it proves the snapshot machinery keeps read-only work
// off the write lock without data races; the final drain proves the
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

// homogLevelWorks replays the level loop of AllocateHomogWorkers
// sequentially and returns the per-level work estimates the fan-out gate
// will see — the table's records are in exactly the state the gate
// inspects them in.
func homogLevelWorks(t testing.TB, led *Ledger, req Homogeneous) []int {
	t.Helper()
	topo := led.Topology()
	tbl := new(homogTable)
	tbl.reset(topo, nil, req, MinMaxOccupancy)
	works := make([]int, 0, topo.Height()+1)
	for level := 0; level <= topo.Height(); level++ {
		verts := topo.AtLevel(level)
		works = append(works, tbl.levelWork(topo, verts))
		for _, v := range verts {
			tbl.compute(led, topo, v)
		}
	}
	return works
}

// TestHomogLevelWorkGate pins the fan-out threshold's behavior at the two
// scales that matter: every level of the paper's default 1,000-machine
// datacenter must fall below parallelMinLevelWork (the measured regression
// showed fan-out losing there), while a datacenter a few times larger must
// cross it so big deployments still parallelize.
func TestHomogLevelWorkGate(t *testing.T) {
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(paper, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	req := Homogeneous{N: 49, Demand: stats.Normal{Mu: 300, Sigma: 120}}
	for level, work := range homogLevelWorks(t, led, req) {
		if work >= parallelMinLevelWork {
			t.Errorf("paper topology level %d: estimated work %d >= threshold %d; default scale would fan out",
				level, work, parallelMinLevelWork)
		}
	}

	big, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 10, ToRsPerAgg: 20, MachinesPerRack: 20, SlotsPerMachine: 4,
		HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	bigLed, err := NewLedger(big, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	crossed := false
	for _, work := range homogLevelWorks(t, bigLed, Homogeneous{N: 200, Demand: stats.Normal{Mu: 300, Sigma: 120}}) {
		if work >= parallelMinLevelWork {
			crossed = true
		}
	}
	if !crossed {
		t.Errorf("4,000-machine topology never crosses the fan-out threshold %d; gate too conservative", parallelMinLevelWork)
	}
}

// TestParallelHomogNotSlowerAtPaperScale is the bench guard for the
// fan-out gate: with the gate in place, an explicit worker count at the
// default tree size must cost no more than the sequential path (it runs
// the same per-level code once every level falls below the threshold).
// The generous bound only catches a regression to unconditional fan-out.
func TestParallelHomogNotSlowerAtPaperScale(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(1)
	for _, link := range topo.AtLevel(1) {
		led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(500, 3000), Sigma: r.UniformRange(100, 800)})
	}
	for _, m := range topo.Machines() {
		led.UseSlots(m, r.IntN(3))
	}
	req := Homogeneous{N: 49, Demand: stats.Normal{Mu: 300, Sigma: 120}}

	best := func(workers int) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, _, err := AllocateHomogWorkers(led, req, MinMaxOccupancy, workers); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	best(1) // warm the crossing-table memo and scratch pools for both paths
	seq := best(1)
	par := best(8)
	t.Logf("seq=%v par(8)=%v", seq, par)
	if par > seq*3/2 {
		t.Errorf("workers=8 took %v vs sequential %v at paper scale; fan-out gate not effective", par, seq)
	}
}
