package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/topology"
)

// fig3Topology is the paper's Fig. 3 example: a switch over two machines
// with 5 slots each and link capacity 50. The spec is statically valid, so
// construction failures panic; this keeps the helper usable inside
// testing/quick properties as well as tests.
func fig3Topology(t *testing.T) *topology.Topology {
	if t != nil {
		t.Helper()
	}
	tp, err := topology.NewFromSpec(topology.Spec{Children: []topology.Spec{
		{UpCap: 50, Slots: 5},
		{UpCap: 50, Slots: 5},
	}})
	if err != nil {
		panic(err)
	}
	return tp
}

func newTestLedger(t *testing.T, tp *topology.Topology, eps float64) *Ledger {
	t.Helper()
	led, err := NewLedger(tp, eps)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return led
}

func TestNewLedgerInvalidEps(t *testing.T) {
	tp := fig3Topology(t)
	for _, eps := range []float64{0, 1, -0.1, 2} {
		if _, err := NewLedger(tp, eps); err == nil {
			t.Errorf("eps=%v: want error", eps)
		}
	}
}

func TestLedgerRiskConstant(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	want := stats.PhiInv(0.95)
	if got := led.RiskConstant(); math.Abs(got-want) > 1e-9 {
		t.Errorf("RiskConstant = %v, want %v", got, want)
	}
	if got := led.Epsilon(); got != 0.05 {
		t.Errorf("Epsilon = %v, want 0.05", got)
	}
}

func TestOccupancyFormula(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	link := led.Topology().Machines()[0]

	if got := led.Occupancy(link); got != 0 {
		t.Fatalf("empty occupancy = %v, want 0", got)
	}

	led.AddDet(link, 10)
	led.AddStochastic(link, stats.Normal{Mu: 8, Sigma: 3})
	led.AddStochastic(link, stats.Normal{Mu: 4, Sigma: 4})

	c := led.RiskConstant()
	want := (10 + 8 + 4 + c*math.Sqrt(9+16)) / 50
	if got := led.Occupancy(link); math.Abs(got-want) > 1e-12 {
		t.Errorf("occupancy = %v, want %v", got, want)
	}
	if got := led.StochasticCount(link); got != 2 {
		t.Errorf("StochasticCount = %d, want 2", got)
	}
	if got := led.DetReserved(link); got != 10 {
		t.Errorf("DetReserved = %v, want 10", got)
	}
	wantEff := 12 + c*5
	if got := led.EffectiveStochastic(link); math.Abs(got-wantEff) > 1e-12 {
		t.Errorf("EffectiveStochastic = %v, want %v", got, wantEff)
	}
}

// TestOccupancyEquivalentToCondition4 verifies the paper's claim that
// O_L < 1 is exactly the admission condition Eq. 4:
// (S_L - sum mu) / sqrt(sum sigma^2) > PhiInv(1 - eps).
func TestOccupancyEquivalentToCondition4(t *testing.T) {
	f := func(detRaw, muRaw, varRaw uint16, epsRaw uint8) bool {
		eps := (float64(epsRaw) + 1) / 300 // eps in (0, ~0.85)
		tp := fig3Topology(nil)
		led, err := NewLedger(tp, eps)
		if err != nil {
			return false
		}
		link := tp.Machines()[0]
		det := float64(detRaw) / 2048 * 25 // up to half capacity
		mu := float64(muRaw) / 2048 * 25
		vr := float64(varRaw) / 2048 * 100
		led.AddDet(link, det)
		led.AddStochastic(link, stats.Normal{Mu: mu, Sigma: math.Sqrt(vr)})

		sL := 50 - det
		cond4 := vr == 0 && sL-mu > 0 ||
			vr > 0 && (sL-mu)/math.Sqrt(vr) > stats.PhiInv(1-eps)
		return (led.Occupancy(link) < 1) == cond4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAddRemoveRestoresState checks the add-then-remove round trip.
func TestAddRemoveRestoresState(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.02)
	link := led.Topology().Machines()[1]
	demands := []stats.Normal{
		{Mu: 8, Sigma: 2.5},
		{Mu: 13.37, Sigma: 0.01},
		{Mu: 0.2, Sigma: 7},
	}
	led.AddDet(link, 5)
	before := led.Occupancy(link)
	for _, d := range demands {
		led.AddStochastic(link, d)
	}
	led.AddDet(link, 11)
	for _, d := range demands {
		led.RemoveStochastic(link, d)
	}
	led.RemoveDet(link, 11)
	if got := led.Occupancy(link); math.Abs(got-before) > 1e-12 {
		t.Errorf("occupancy after round trip = %v, want %v", got, before)
	}
	if got := led.StochasticCount(link); got != 0 {
		t.Errorf("StochasticCount = %d, want 0", got)
	}
}

func TestRemoveClampsNegativeResidue(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	link := led.Topology().Machines()[0]
	// Simulate floating-point residue by removing slightly more than was
	// added; the ledger must clamp instead of going negative.
	led.AddStochastic(link, stats.Normal{Mu: 1, Sigma: 1})
	led.RemoveStochastic(link, stats.Normal{Mu: 1 + 1e-13, Sigma: 1 + 1e-13})
	if got := led.Occupancy(link); got < 0 {
		t.Errorf("occupancy = %v, want >= 0", got)
	}
}

func TestSlotAccounting(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()[0]
	if got := led.FreeSlots(m); got != 5 {
		t.Fatalf("FreeSlots = %d, want 5", got)
	}
	led.UseSlots(m, 3)
	if got := led.FreeSlots(m); got != 2 {
		t.Errorf("FreeSlots after use = %d, want 2", got)
	}
	if got := led.TotalFreeSlots(); got != 7 {
		t.Errorf("TotalFreeSlots = %d, want 7", got)
	}
	led.ReleaseSlots(m, 3)
	if got := led.FreeSlots(m); got != 5 {
		t.Errorf("FreeSlots after release = %d, want 5", got)
	}
}

func TestUseSlotsOverCapacityPanics(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()[0]
	defer func() {
		if recover() == nil {
			t.Error("UseSlots over capacity did not panic")
		}
	}()
	led.UseSlots(m, 6)
}

func TestReleaseSlotsUnderflowPanics(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()[0]
	defer func() {
		if recover() == nil {
			t.Error("ReleaseSlots underflow did not panic")
		}
	}()
	led.ReleaseSlots(m, 1)
}

func TestMaxOccupancy(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	if got := led.MaxOccupancy(); got != 0 {
		t.Fatalf("empty MaxOccupancy = %v, want 0", got)
	}
	a, b := led.Topology().Machines()[0], led.Topology().Machines()[1]
	led.AddDet(a, 10)
	led.AddDet(b, 30)
	if got := led.MaxOccupancy(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("MaxOccupancy = %v, want 0.6", got)
	}
}

// TestOccupancyWithMatchesAddOccupancy: the what-if occupancy must equal
// the occupancy after actually adding the demand.
func TestOccupancyWithMatchesAddOccupancy(t *testing.T) {
	f := func(mu1, mu2, s1, s2 uint8) bool {
		tp := fig3Topology(nil)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			return false
		}
		link := tp.Machines()[0]
		led.AddStochastic(link, stats.Normal{Mu: float64(mu1), Sigma: float64(s1) / 16})
		d := stats.Normal{Mu: float64(mu2), Sigma: float64(s2) / 16}
		whatIf := led.OccupancyWith(link, d)
		led.AddStochastic(link, d)
		return math.Abs(whatIf-led.Occupancy(link)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOfflineMachine(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()[0]
	led.UseSlots(m, 2)
	led.SetOffline(m, true)
	if !led.Offline(m) {
		t.Error("Offline = false after SetOffline(true)")
	}
	if got := led.FreeSlots(m); got != 0 {
		t.Errorf("FreeSlots offline = %d, want 0", got)
	}
	// Releasing slots taken before the failure must still work.
	led.ReleaseSlots(m, 2)
	led.SetOffline(m, false)
	if got := led.FreeSlots(m); got != 5 {
		t.Errorf("FreeSlots back online = %d, want 5", got)
	}
}

func TestSetOfflineOnSwitchPanics(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	defer func() {
		if recover() == nil {
			t.Error("SetOffline on switch did not panic")
		}
	}()
	led.SetOffline(led.Topology().Root(), true)
}

// TestAllocatorsAvoidOfflineMachines: with one of two machines offline, a
// request larger than the survivor is rejected rather than placed on the
// dead machine.
func TestAllocatorsAvoidOfflineMachines(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	led.SetOffline(led.Topology().Machines()[0], true)
	req, _ := NewHomogeneous(6, stats.Normal{Mu: 1, Sigma: 0.1})
	if _, err := AllocateHomog(led, req, MinMaxOccupancy); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity with only 5 live slots", err)
	}
	small, _ := NewHomogeneous(5, stats.Normal{Mu: 1, Sigma: 0.1})
	p, err := AllocateHomog(led, small, MinMaxOccupancy)
	contribs := contribsOf(led.Topology(), small, &p)
	if err != nil {
		t.Fatalf("AllocateHomog: %v", err)
	}
	if err := ValidatePlacement(led, contribs, &p, 5); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	for _, e := range p.Entries {
		if led.Offline(e.Machine) {
			t.Errorf("VM placed on offline machine %d", e.Machine)
		}
	}
}

func TestMaxOccupancyByLevel(t *testing.T) {
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	tp := led.Topology()
	machine := tp.Machines()[0]
	rack := tp.Node(machine).Parent
	led.AddDet(machine, 15) // host link: 15/30 = 0.5
	led.AddDet(rack, 10)    // rack uplink: 10/40 = 0.25
	byLevel := led.MaxOccupancyByLevel()
	if len(byLevel) != 2 {
		t.Fatalf("levels = %d, want 2", len(byLevel))
	}
	if math.Abs(byLevel[0]-0.5) > 1e-12 {
		t.Errorf("host level max = %v, want 0.5", byLevel[0])
	}
	if math.Abs(byLevel[1]-0.25) > 1e-12 {
		t.Errorf("rack level max = %v, want 0.25", byLevel[1])
	}
}

// boundFromScratch is what Ledger.subtreeBound must hold for internal
// vertex v, read off the ledger without the memo: the free slots of every
// machine below v, and the largest occupancy of a link whose lower end is
// a proper descendant of v, over every such link (inner) and over those in
// service (live).
func boundFromScratch(led *Ledger, v topology.NodeID) (free int, inner, live float64) {
	tp := led.Topology()
	for _, m := range tp.SubtreeMachines(nil, v) {
		free += led.FreeSlots(m)
	}
	for _, link := range tp.Links() {
		for a := tp.Node(link).Parent; a != topology.None; a = tp.Node(a).Parent {
			if a == v {
				inner = max(inner, led.Occupancy(link))
				if led.Faults().Reachable(link) {
					live = max(live, led.Occupancy(link))
				}
				break
			}
		}
	}
	return free, inner, live
}

// heldReservation is a reservation a test ledger holds, kept so a random
// stream can remove it again.
type heldReservation struct {
	link topology.LinkID
	d    stats.Normal
	det  bool
}

// ledgerLineage is one ledger of a clone lineage a random stream drives,
// with the reservations it holds.
type ledgerLineage struct {
	led  *Ledger
	held []heldReservation
}

// stepLineage applies one random step to a random ledger of ls: a clone
// (while there are fewer than four), slot use or release, a stochastic or
// deterministic reservation or the removal of one, SetOffline, a link
// failure or restore, or a machine failure toggled. With ties, a
// deterministic reservation fills a quarter or a half of its link, so
// occupancies repeat across links. It returns ls, grown by a clone step.
func stepLineage(r *stats.Rand, tp *topology.Topology, ls []*ledgerLineage, ties bool) []*ledgerLineage {
	machines, links := tp.Machines(), tp.Links()
	l := ls[r.IntN(len(ls))]
	led, faults := l.led, l.led.Faults()
	m, link := machines[r.IntN(len(machines))], links[r.IntN(len(links))]
	switch op := r.IntN(10); {
	case op == 0 && len(ls) < 4:
		ls = append(ls, &ledgerLineage{led: led.Clone(), held: append([]heldReservation(nil), l.held...)})
	case op <= 2 && led.FreeSlots(m) > 0:
		led.UseSlots(m, r.UniformInt(1, led.FreeSlots(m)))
	case op <= 2 && led.used[m] > 0:
		led.ReleaseSlots(m, r.UniformInt(1, led.used[m]))
	case op <= 4:
		res := heldReservation{link: link, det: r.IntN(2) == 0}
		res.d = stats.Normal{Mu: r.UniformRange(0, 0.3*tp.LinkCap(link)), Sigma: r.UniformRange(0, 0.2*tp.LinkCap(link))}
		if ties && res.det {
			res.d.Mu = float64(1+r.IntN(2)) / 4 * tp.LinkCap(link)
		}
		if res.det {
			led.AddDet(link, res.d.Mu)
		} else {
			led.AddStochastic(link, res.d)
		}
		l.held = append(l.held, res)
	case op == 5 && len(l.held) > 0:
		i := r.IntN(len(l.held))
		if res := l.held[i]; res.det {
			led.RemoveDet(res.link, res.d.Mu)
		} else {
			led.RemoveStochastic(res.link, res.d)
		}
		l.held = append(l.held[:i], l.held[i+1:]...)
	case op == 6:
		led.SetOffline(m, !led.Offline(m))
	case op == 7:
		faults.FailLink(link)
	case op == 8:
		faults.RestoreLink(link)
	default:
		if !faults.FailMachine(m) {
			faults.RestoreMachine(m)
		}
	}
	return ls
}

// TestSubtreeBoundMemo drives ledgers over random trees and the paper tree
// through streams of slot use and release, stochastic and deterministic
// reservations and their removal, machine and link failures and restores,
// SetOffline, and clones that then diverge from their source, and after
// every step requires the memo of every internal vertex — of every ledger
// in the lineage, the source included — to equal a recompute from
// scratch. Only some vertices are read after a step, so entries are also
// read after several steps of staleness.
func TestSubtreeBoundMemo(t *testing.T) {
	r := stats.NewRand(3939)
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hits, clones int
	for trial := 0; trial < 120; trial++ {
		tp, steps := randomTopology(r), 200
		if trial%20 == 0 {
			tp, steps = paper, 60
		}
		var internal []topology.NodeID
		for v := topology.NodeID(0); int(v) < tp.Len(); v++ {
			if !tp.Node(v).IsMachine() {
				internal = append(internal, v)
			}
		}
		ledgers := []*ledgerLineage{{led: newTestLedger(t, tp, []float64{0.05, 0.7}[r.IntN(2)])}}
		for step := 0; step < steps; step++ {
			n := len(ledgers)
			if ledgers = stepLineage(r, tp, ledgers, false); len(ledgers) > n {
				clones++
			}
			for _, l := range ledgers {
				check := internal
				if r.IntN(2) == 0 {
					check = internal[r.IntN(len(internal)):][:1]
				}
				for _, v := range check {
					b := l.led.bounds[v]
					if b.ver == l.led.SubtreeVersion(v) && b.epoch == l.led.Faults().Epoch() {
						hits++
					}
					free, inner := l.led.subtreeBound(v)
					live := l.led.bounds[v].live
					wantFree, wantInner, wantLive := boundFromScratch(l.led, v)
					if free != wantFree || math.Float64bits(inner) != math.Float64bits(wantInner) || math.Float64bits(live) != math.Float64bits(wantLive) {
						t.Fatalf("trial %d, step %d: vertex %d's memo is (%d, %v, live %v), its subtree has (%d, %v, live %v)",
							trial, step, v, free, inner, live, wantFree, wantInner, wantLive)
					}
				}
			}
		}
	}
	if hits < 50000 || clones < 200 {
		t.Errorf("weak coverage: %d memo hits, %d clones", hits, clones)
	}
	t.Logf("%d memo hits, %d clones", hits, clones)
}
