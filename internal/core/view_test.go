package core

import (
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// dryRunCase is one manager configuration of TestDryRunEqualsAdmission.
type dryRunCase struct {
	name   string
	policy Policy
	scoped bool
}

// TestDryRunEqualsAdmission: on the same state, CanAllocate*(req) is
// "Allocate*(req) succeeds" — for homogeneous and heterogeneous requests,
// every policy, scoped and unscoped managers, with faults present, and
// whether the dry run is its key's cold first sight, the second sight that
// builds the cache entry, or a hit on it.
func TestDryRunEqualsAdmission(t *testing.T) {
	var cases []dryRunCase
	for _, p := range []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack} {
		cases = append(cases, dryRunCase{p.String(), p, false}, dryRunCase{p.String() + "-scoped", p, true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
				Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 4, SlotsPerMachine: 4, HostCap: 1000, Oversub: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := []ManagerOption{WithPolicy(tc.policy)}
			if tc.scoped {
				opts = append(opts, WithPlanSubtree(topo.Node(topo.Root()).Children[0]))
			}
			m, err := NewManager(topo, 0.05, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.FailMachine(topo.Machines()[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := m.FailLink(topo.Machines()[6]); err != nil {
				t.Fatal(err)
			}

			type shape struct {
				homog  *Homogeneous
				hetero *Heterogeneous
			}
			var shapes []shape
			for _, n := range []int{2, 5, 9} {
				shapes = append(shapes, shape{homog: &Homogeneous{N: n, Demand: stats.Normal{Mu: 180, Sigma: 60}}})
				demands := make([]stats.Normal, n)
				for i := range demands {
					demands[i] = stats.Normal{Mu: 120 + 25*float64(i), Sigma: 40}
				}
				shapes = append(shapes, shape{hetero: &Heterogeneous{Demands: demands}})
			}
			can := func(s shape) bool {
				if s.homog != nil {
					return m.CanAllocateHomog(*s.homog)
				}
				return m.CanAllocateHetero(*s.hetero)
			}
			admit := func(s shape) (*Allocation, error) {
				if s.homog != nil {
					return m.AllocateHomog(*s.homog)
				}
				return m.AllocateHetero(*s.hetero)
			}

			var live []JobID
			verdicts := map[bool]int{}
			for i, s := range shapes {
				if i%3 == 2 {
					// This shape's first dry run is its key's second sight.
					if a, err := admit(s); err == nil {
						live = append(live, a.ID)
					}
				}
			}
			for round := 0; round < 8; round++ {
				for i, s := range shapes {
					want := can(s)
					a, err := admit(s)
					if got := err == nil; got != want {
						t.Fatalf("round %d shape %d: CanAllocate = %v but Allocate err = %v", round, i, want, err)
					}
					verdicts[want]++
					if err == nil {
						live = append(live, a.ID)
					}
				}
				if round%3 == 2 { // make room, so verdicts flip both ways
					for _, id := range live[:len(live)/2] {
						if err := m.Release(id); err != nil {
							t.Fatal(err)
						}
					}
					live = live[len(live)/2:]
				}
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Fatalf("verdicts %v: the case never exercised both outcomes", verdicts)
			}
			if st := m.AdmissionStats(); st.PlanCacheHits == 0 || st.PlanCacheMisses == 0 {
				t.Fatalf("plan cache hits=%d misses=%d: want both paths exercised", st.PlanCacheHits, st.PlanCacheMisses)
			}
		})
	}
}

// planOnly runs an admission's plan step on mut and stops there, before
// the commit.
func planOnly(t *testing.T, m *Manager, mut Mutation) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.planLocked(&mut); err != nil {
		t.Fatal(err)
	}
}

// TestDryRunBuildsNoPlacement: on a warm key with no mutation in between,
// a dry run allocates nothing, while the plan an admission runs on the
// same table allocates its placement and contribution slices.
func TestDryRunBuildsNoPlacement(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 3, MachinesPerRack: 10, SlotsPerMachine: 4, HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	req := Homogeneous{N: 8, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	hreq := Heterogeneous{Demands: []stats.Normal{{Mu: 100, Sigma: 30}, {Mu: 150, Sigma: 30}, {Mu: 200, Sigma: 30}}}
	for i := 0; i < 3; i++ { // first sight, promotion, hit
		if !m.CanAllocateHomog(req) || !m.CanAllocateHetero(hreq) {
			t.Fatal("request does not fit an empty datacenter")
		}
	}
	dry := testing.AllocsPerRun(50, func() { m.CanAllocateHomog(req) })
	plan := testing.AllocsPerRun(50, func() {
		r := req
		planOnly(t, m, Mutation{Op: OpAlloc, Homog: &r})
	})
	if dry != 0 {
		t.Errorf("warm homogeneous dry run allocates %v times, want 0", dry)
	}
	if plan-dry < 2 {
		t.Errorf("admission plan allocates %v times, dry run %v: want the plan to pay for at least the placement and contribution slices", plan, dry)
	}
	hdry := testing.AllocsPerRun(50, func() { m.CanAllocateHetero(hreq) })
	hplan := testing.AllocsPerRun(50, func() {
		planOnly(t, m, Mutation{Op: OpAlloc, Hetero: &Heterogeneous{Demands: slices.Clone(hreq.Demands)}})
	})
	// Both sort the request by percentile and render the cache key; only
	// the plan builds the per-machine VM lists, placement and contributions.
	if hplan-hdry < 2 {
		t.Errorf("hetero admission plan allocates %v times, dry run %v: want the plan to pay for at least the placement and contribution slices", hplan, hdry)
	}
}
