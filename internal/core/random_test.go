package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// randomSpec grows a random tree topology: depth up to 3, fanout up to 4,
// machines with 1-4 slots, link capacities wide enough to be sometimes
// binding.
func randomSpec(r *stats.Rand, depth int) topology.Spec {
	if depth == 0 || r.Float64() < 0.25 {
		return topology.Spec{
			UpCap: r.UniformRange(20, 120),
			Slots: r.UniformInt(1, 4),
		}
	}
	n := r.UniformInt(1, 4)
	s := topology.Spec{UpCap: r.UniformRange(50, 300)}
	for i := 0; i < n; i++ {
		s.Children = append(s.Children, randomSpec(r, depth-1))
	}
	return s
}

func randomTopology(r *stats.Rand) *topology.Topology {
	for {
		spec := randomSpec(r, 3)
		spec.UpCap = 0 // root has no uplink
		if len(spec.Children) == 0 {
			continue // a bare machine is legal but uninteresting here
		}
		tp, err := topology.NewFromSpec(spec)
		if err != nil {
			continue
		}
		if tp.TotalSlots() >= 4 {
			return tp
		}
	}
}

// TestHomogRandomTopologies fuzzes Algorithm 1 across random topologies,
// background states and requests: every returned placement must validate,
// and committing then releasing must restore the ledger.
func TestHomogRandomTopologies(t *testing.T) {
	r := stats.NewRand(8888)
	admitted := 0
	for trial := 0; trial < 150; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		for _, link := range tp.Links() {
			if r.Float64() < 0.4 {
				led.AddDet(link, r.UniformRange(0, 0.4*tp.LinkCap(link)))
			}
		}
		before := snapshotOccupancies(led)

		n := r.UniformInt(1, min(10, tp.TotalSlots()))
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(1, 15), Sigma: r.UniformRange(0, 6)}}
		policy := MinMaxOccupancy
		if trial%2 == 1 {
			policy = FirstFeasible
		}
		p, contribs, err := AllocateHomog(led, req, policy)
		if err != nil {
			continue
		}
		admitted++
		if verr := ValidatePlacement(led, contribs, &p, n); verr != nil {
			t.Fatalf("trial %d: invalid placement on random topology: %v", trial, verr)
		}
		commit(led, &p, contribs)
		for _, link := range tp.Links() {
			if occ := led.Occupancy(link); occ >= 1 {
				t.Fatalf("trial %d: link %d occupancy %v >= 1 after commit", trial, link, occ)
			}
		}
		rollback(led, &p, contribs)
		checkOccupanciesRestored(t, led, before, trial)
	}
	if admitted < 50 {
		t.Fatalf("only %d of 150 random trials admitted; generator too hostile", admitted)
	}
}

// TestHeteroRandomTopologies fuzzes the substring heuristic and first fit
// the same way.
func TestHeteroRandomTopologies(t *testing.T) {
	r := stats.NewRand(9999)
	admitted := 0
	for trial := 0; trial < 100; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		for _, link := range tp.Links() {
			if r.Float64() < 0.3 {
				led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(0, 8), Sigma: r.UniformRange(0, 4)})
			}
		}
		before := snapshotOccupancies(led)

		n := r.UniformInt(1, min(8, tp.TotalSlots()))
		req := randHetero(r, n, 1, 12)
		var (
			p        Placement
			contribs []Contribution
		)
		if trial%2 == 0 {
			p, contribs, err = AllocateHeteroSubstring(led, req, MinMaxOccupancy)
		} else {
			p, contribs, err = AllocateFirstFit(led, req)
		}
		if err != nil {
			continue
		}
		admitted++
		if verr := ValidatePlacement(led, contribs, &p, n); verr != nil {
			t.Fatalf("trial %d: invalid placement: %v", trial, verr)
		}
		commit(led, &p, contribs)
		rollback(led, &p, contribs)
		checkOccupanciesRestored(t, led, before, trial)
	}
	if admitted < 30 {
		t.Fatalf("only %d of 100 random trials admitted", admitted)
	}
}

func snapshotOccupancies(led *Ledger) []float64 {
	links := led.Topology().Links()
	out := make([]float64, len(links))
	for i, l := range links {
		out[i] = led.Occupancy(l)
	}
	return out
}

func checkOccupanciesRestored(t *testing.T, led *Ledger, before []float64, trial int) {
	t.Helper()
	for i, l := range led.Topology().Links() {
		if after := led.Occupancy(l); math.Abs(after-before[i]) > 1e-9 {
			t.Fatalf("trial %d: link %d occupancy %v != %v after release", trial, l, after, before[i])
		}
	}
}

// TestHomogDeterministicPlacements: the DP must be a pure function of the
// ledger state — identical inputs give identical placements.
func TestHomogDeterministicPlacements(t *testing.T) {
	r := stats.NewRand(4242)
	for trial := 0; trial < 30; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		n := r.UniformInt(1, min(8, tp.TotalSlots()))
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: 5, Sigma: 2}}
		p1, _, err1 := AllocateHomog(led, req, MinMaxOccupancy)
		p2, _, err2 := AllocateHomog(led, req, MinMaxOccupancy)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: inconsistent feasibility", trial)
		}
		if err1 != nil {
			continue
		}
		if p1.String() != p2.String() {
			t.Fatalf("trial %d: placements differ:\n%v\n%v", trial, &p1, &p2)
		}
	}
}
