package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// mustTopo builds a topology from a spec, panicking on error so helpers can
// be shared with quick properties.
func mustTopo(spec topology.Spec) *topology.Topology {
	tp, err := topology.NewFromSpec(spec)
	if err != nil {
		panic(err)
	}
	return tp
}

// threeMachineSpec: one switch over three machines, 3 slots each, link
// capacity 50. Used to separate min-max from first-feasible behaviour.
func threeMachineSpec() topology.Spec {
	return topology.Spec{Children: []topology.Spec{
		{UpCap: 50, Slots: 3},
		{UpCap: 50, Slots: 3},
		{UpCap: 50, Slots: 3},
	}}
}

// smallThreeTier: 2 racks x 2 machines x 3 slots; host links 30, rack
// uplinks 40.
func smallThreeTier() topology.Spec {
	rack := func() topology.Spec {
		return topology.Spec{UpCap: 40, Children: []topology.Spec{
			{UpCap: 30, Slots: 3},
			{UpCap: 30, Slots: 3},
		}}
	}
	return topology.Spec{Children: []topology.Spec{rack(), rack()}}
}

// placementCounts returns machine -> VM count.
func placementCounts(p *Placement) map[topology.NodeID]int {
	m := make(map[topology.NodeID]int)
	for _, e := range p.Entries {
		m[e.Machine] = e.Count
	}
	return m
}

// enclosingSubtree returns the root of the lowest subtree containing every
// machine of the placement.
func enclosingSubtree(tp *topology.Topology, p *Placement) topology.NodeID {
	machines := p.Machines()
	cur := machines[0]
	for _, m := range machines[1:] {
		for cur != m && !isAncestor(tp, cur, m) {
			cur = tp.Node(cur).Parent
		}
	}
	return cur
}

func isAncestor(tp *topology.Topology, anc, n topology.NodeID) bool {
	for n != topology.None {
		if n == anc {
			return true
		}
		n = tp.Node(n).Parent
	}
	return false
}

// maxOccInSubtree computes the maximum post-allocation occupancy over the
// links strictly inside the subtree rooted at sub, mirroring the DP's
// objective.
func maxOccInSubtree(led *Ledger, sub topology.NodeID, contribs []Contribution) float64 {
	tp := led.Topology()
	contrib := make(map[topology.LinkID]Contribution, len(contribs))
	for _, c := range contribs {
		contrib[c.Link] = c
	}
	maxOcc := 0.0
	var walk func(v topology.NodeID)
	walk = func(v topology.NodeID) {
		for _, c := range tp.Node(v).Children {
			var occ float64
			if d, ok := contrib[c]; ok {
				if d.Det {
					occ = led.OccupancyWithDet(c, d.Mu)
				} else {
					occ = led.OccupancyWith(c, d.demand())
				}
			} else {
				occ = led.Occupancy(c)
			}
			if occ > maxOcc {
				maxOcc = occ
			}
			walk(c)
		}
	}
	walk(sub)
	return maxOcc
}

func TestHomogSingleMachineHostsWholeRequest(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req, _ := NewHomogeneous(4, stats.Normal{Mu: 100, Sigma: 30})
	p, err := AllocateHomog(led, req, MinMaxOccupancy)
	contribs := contribsOf(led.Topology(), req, &p)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if len(p.Entries) != 1 || p.Entries[0].Count != 4 {
		t.Errorf("placement = %v, want all 4 VMs on one machine", &p)
	}
	if len(contribs) != 0 {
		t.Errorf("contribs = %v, want none (same-machine VMs use no links)", contribs)
	}
}

// TestHomogFig3Example allocates the paper's Fig. 3 request <N=6, B=10> and
// checks the min-max algorithm picks the cheapest split (1, 5): reserved
// bandwidth min(1,5)*10 = 10, occupancy 0.2 — strictly better than the
// paper's illustrated (2,4) and (3,3) splits.
func TestHomogFig3Example(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req, _ := NewDeterministic(6, 10)
	p, err := AllocateHomog(led, req, MinMaxOccupancy)
	contribs := contribsOf(led.Topology(), req, &p)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if err := ValidatePlacement(led, contribs, &p, 6); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	counts := placementCounts(&p)
	var sizes []int
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	if len(sizes) != 2 || min(sizes[0], sizes[1]) != 1 {
		t.Errorf("split = %v, want {1, 5}", sizes)
	}
	sub := enclosingSubtree(led.Topology(), &p)
	if got := maxOccInSubtree(led, sub, contribs); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("max occupancy = %v, want 0.2", got)
	}
}

// TestHomogMinMaxBeatsFirstFeasible reproduces the paper's motivating
// observation: with background load the TIVC-style first-feasible split can
// be strictly worse in bandwidth occupancy than the min-max optimal one.
func TestHomogMinMaxBeatsFirstFeasible(t *testing.T) {
	req, _ := NewDeterministic(6, 10)
	run := func(policy Policy) float64 {
		led := newTestLedger(t, mustTopo(threeMachineSpec()), 0.05)
		led.AddDet(led.Topology().Machines()[2], 30) // background load on machine C's link
		p, err := AllocateHomog(led, req, policy)
		contribs := contribsOf(led.Topology(), req, &p)
		if err != nil {
			t.Fatalf("AllocateHomog(%v): %v", policy, err)
		}
		if err := ValidatePlacement(led, contribs, &p, 6); err != nil {
			t.Fatalf("invalid placement under %v: %v", policy, err)
		}
		return maxOccInSubtree(led, led.Topology().Root(), contribs)
	}
	minmax := run(MinMaxOccupancy)
	tivc := run(FirstFeasible)
	if math.Abs(minmax-0.6) > 1e-12 {
		t.Errorf("min-max occupancy = %v, want 0.6 (split 3/3/0)", minmax)
	}
	if tivc <= minmax {
		t.Errorf("first-feasible occupancy = %v, want > %v", tivc, minmax)
	}
}

// TestHomogLocality checks that a request fitting in one rack never
// reserves bandwidth above that rack.
func TestHomogLocality(t *testing.T) {
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	req, _ := NewHomogeneous(5, stats.Normal{Mu: 10, Sigma: 3})
	p, err := AllocateHomog(led, req, MinMaxOccupancy)
	contribs := contribsOf(led.Topology(), req, &p)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	tp := led.Topology()
	sub := enclosingSubtree(tp, &p)
	if tp.Node(sub).Level != 1 {
		t.Errorf("enclosing subtree level = %d, want 1 (one rack)", tp.Node(sub).Level)
	}
	for _, c := range contribs {
		if !isAncestor(tp, sub, c.Link) || c.Link == sub {
			t.Errorf("contribution on link %d outside the rack subtree", c.Link)
		}
	}
}

func TestHomogRejectsWhenNoSlots(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req, _ := NewHomogeneous(11, stats.Normal{Mu: 1, Sigma: 0.1})
	if _, err := AllocateHomog(led, req, MinMaxOccupancy); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

func TestHomogRejectsWhenNoBandwidth(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	// 6 VMs cannot fit in one machine, and any split reserves at least
	// min(1,5)*45 = 45; preload 10 on both links so 45 + 10 >= 50 fails.
	for _, m := range led.Topology().Machines() {
		led.AddDet(m, 10)
	}
	req, _ := NewDeterministic(6, 45)
	if _, err := AllocateHomog(led, req, MinMaxOccupancy); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

func TestHomogInvalidRequest(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	if _, err := AllocateHomog(led, Homogeneous{N: 0}, MinMaxOccupancy); !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
}

// bruteForceHomog enumerates every slot-respecting distribution of the
// request's VMs over the machines, keeps the valid ones, and returns the
// lexicographic best (enclosing-subtree level, max in-subtree occupancy).
func bruteForceHomog(led *Ledger, req Homogeneous) (level int, value float64, found bool) {
	tp := led.Topology()
	machines := tp.Machines()
	best := struct {
		level int
		value float64
		found bool
	}{}
	counts := make([]int, len(machines))
	var recurse func(i, left int)
	recurse = func(i, left int) {
		if i == len(machines) {
			if left != 0 {
				return
			}
			var p Placement
			for j, c := range counts {
				if c > 0 {
					p.Entries = append(p.Entries, PlacementEntry{Machine: machines[j], Count: c})
				}
			}
			if p.TotalVMs() == 0 {
				return
			}
			contribs := homogContributions(tp, req, &p)
			if ValidatePlacement(led, contribs, &p, req.N) != nil {
				return
			}
			sub := enclosingSubtree(tp, &p)
			lv := tp.Node(sub).Level
			val := maxOccInSubtree(led, sub, contribs)
			if !best.found || lv < best.level || (lv == best.level && val < best.value-1e-12) {
				best.level, best.value, best.found = lv, val, true
			}
			return
		}
		maxHere := min(left, led.FreeSlots(machines[i]))
		for c := 0; c <= maxHere; c++ {
			counts[i] = c
			recurse(i+1, left-c)
		}
		counts[i] = 0
	}
	recurse(0, req.N)
	return best.level, best.value, best.found
}

// TestHomogMatchesBruteForce cross-checks the DP against exhaustive search
// on randomized small instances: same feasibility, same subtree level, and
// the same optimal min-max occupancy value.
func TestHomogMatchesBruteForce(t *testing.T) {
	r := stats.NewRand(12345)
	for trial := 0; trial < 120; trial++ {
		led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
		// Random background state: deterministic preloads plus a couple of
		// stochastic demands, all below capacity.
		for _, link := range led.Topology().Links() {
			if r.Float64() < 0.5 {
				led.AddDet(link, r.UniformRange(0, 0.5*led.Topology().LinkCap(link)))
			}
			if r.Float64() < 0.3 {
				led.AddStochastic(link, stats.Normal{
					Mu:    r.UniformRange(0, 5),
					Sigma: r.UniformRange(0, 3),
				})
			}
		}
		// Random pre-used slots.
		for _, m := range led.Topology().Machines() {
			led.UseSlots(m, r.IntN(3))
		}
		n := r.UniformInt(2, 8)
		demand := stats.Normal{Mu: r.UniformRange(1, 8), Sigma: r.UniformRange(0, 4)}
		if r.Float64() < 0.3 {
			demand.Sigma = 0 // exercise the deterministic path too
		}
		req := Homogeneous{N: n, Demand: demand}

		p, err := AllocateHomog(led, req, MinMaxOccupancy)
		contribs := contribsOf(led.Topology(), req, &p)
		bfLevel, bfValue, bfFound := bruteForceHomog(led, req)

		if bfFound != (err == nil) {
			t.Fatalf("trial %d: DP err=%v, brute force found=%v (req %v)", trial, err, bfFound, req)
		}
		if err != nil {
			continue
		}
		if verr := ValidatePlacement(led, contribs, &p, n); verr != nil {
			t.Fatalf("trial %d: invalid DP placement: %v", trial, verr)
		}
		sub := enclosingSubtree(led.Topology(), &p)
		dpLevel := led.Topology().Node(sub).Level
		dpValue := maxOccInSubtree(led, sub, contribs)
		if dpLevel != bfLevel {
			t.Fatalf("trial %d: DP level %d, brute force %d (req %v)", trial, dpLevel, bfLevel, req)
		}
		if math.Abs(dpValue-bfValue) > 1e-9 {
			t.Fatalf("trial %d: DP value %v, brute force %v (req %v)", trial, dpValue, bfValue, req)
		}
	}
}

// TestHomogFirstFeasibleValid: the adapted TIVC policy must still only
// produce valid placements.
func TestHomogFirstFeasibleValid(t *testing.T) {
	r := stats.NewRand(999)
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	for trial := 0; trial < 50; trial++ {
		n := r.UniformInt(1, 6)
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(1, 6), Sigma: r.UniformRange(0, 2)}}
		p, err := AllocateHomog(led, req, FirstFeasible)
		contribs := contribsOf(led.Topology(), req, &p)
		if err != nil {
			continue
		}
		if verr := ValidatePlacement(led, contribs, &p, n); verr != nil {
			t.Fatalf("trial %d: invalid placement: %v", trial, verr)
		}
		commit(led, &p, contribs)
	}
}

// TestStochasticPacksMoreThanPercentile demonstrates the paper's core
// multiplexing claim: on a link of fixed capacity, more SVC demands
// N(100, 50^2) fit under the probabilistic condition (eps = 0.05) than
// percentile-VC reservations of the same profile, because effective
// bandwidth grows as mu*k + c*sigma*sqrt(k) rather than linearly in the
// 95th percentile.
func TestStochasticPacksMoreThanPercentile(t *testing.T) {
	profile := stats.Normal{Mu: 100, Sigma: 50}
	spec := topology.Spec{Children: []topology.Spec{
		{UpCap: 2000, Slots: 1},
		{UpCap: 2000, Slots: 1},
	}}
	link := topology.NodeID(1)

	countSVC := func() int {
		led := newTestLedger(t, mustTopo(spec), 0.05)
		for k := 0; ; k++ {
			if led.OccupancyWith(link, profile) >= 1 {
				return k
			}
			led.AddStochastic(link, profile)
		}
	}
	countPct := func() int {
		led := newTestLedger(t, mustTopo(spec), 0.05)
		b := profile.Quantile(Percentile95)
		for k := 0; ; k++ {
			if led.OccupancyWithDet(link, b) >= 1 {
				return k
			}
			led.AddDet(link, b)
		}
	}
	svc, pct := countSVC(), countPct()
	// Analytically: percentile-VC fits floor(2000/182.2) = 10 demands;
	// SVC fits 16 (16*100 + 1.645*50*4 = 1929 < 2000).
	if pct != 10 {
		t.Errorf("percentile-VC packed %d, want 10", pct)
	}
	if svc != 16 {
		t.Errorf("SVC packed %d, want 16", svc)
	}
	if svc <= pct {
		t.Errorf("SVC packed %d <= percentile-VC %d", svc, pct)
	}
}

// TestGreedyPackMaximizesLocality: the Oktopus-style policy fills the
// leftmost machine as full as possible before spilling over.
func TestGreedyPackMaximizesLocality(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req, _ := NewDeterministic(6, 1) // bandwidth loose: slots bind
	p, err := AllocateHomog(led, req, GreedyPack)
	contribs := contribsOf(led.Topology(), req, &p)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if err := ValidatePlacement(led, contribs, &p, 6); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	counts := placementCounts(&p)
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max != 5 {
		t.Errorf("largest machine share = %d, want 5 (greedy packing)", max)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack, Policy(42)} {
		if p.String() == "" {
			t.Errorf("empty String for policy %d", int(p))
		}
	}
}

// TestGreedyPackValidUnderLoad: greedy packing still only returns valid
// placements when bandwidth binds.
func TestGreedyPackValidUnderLoad(t *testing.T) {
	r := stats.NewRand(777)
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	for trial := 0; trial < 40; trial++ {
		n := r.UniformInt(1, 7)
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(1, 7), Sigma: r.UniformRange(0, 3)}}
		p, err := AllocateHomog(led, req, GreedyPack)
		contribs := contribsOf(led.Topology(), req, &p)
		if err != nil {
			continue
		}
		if verr := ValidatePlacement(led, contribs, &p, n); verr != nil {
			t.Fatalf("trial %d: invalid greedy placement: %v", trial, verr)
		}
		commit(led, &p, contribs)
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
