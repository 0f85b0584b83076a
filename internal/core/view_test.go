package core

import (
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestViewEqualsClone is the "refresh ≡ clone" property: over random
// trees and random interleavings of admit / release / SetOffline /
// FailMachine / FailLink / restore / RepairAll (the generator
// FuzzFailRestoreLedger uses), a read after every step sees exactly
// m.led.Clone(). Run under -tags invariants the accessor makes the same
// comparison itself on every 8th refresh.
func TestViewEqualsClone(t *testing.T) {
	r := stats.NewRand(20)
	for trial := 0; trial < 60; trial++ {
		m, err := NewManager(randomTopology(r), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]byte, 2*r.UniformInt(20, 120))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		driveFailRestore(t, m, ops)
	}
}

// TestRefreshFromCostsTouchedPaths: an in-place refresh allocates nothing
// and writes only the root paths mutated since the buffer was current.
func TestRefreshFromCostsTouchedPaths(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 3, MachinesPerRack: 10, SlotsPerMachine: 4, HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, _ := NewLedger(topo, 0.05)
	buf := live.Clone()
	mc := topo.Machines()[7]
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			live.UseSlots(mc, 1)
		} else {
			live.ReleaseSlots(mc, 1)
		}
		buf.refreshFrom(live)
	})
	if allocs != 0 {
		t.Errorf("refreshFrom allocates %v times per refresh, want 0", allocs)
	}
	if !reflect.DeepEqual(buf, live.Clone()) {
		t.Error("refreshed buffer differs from a clone")
	}
	// Off the touched path nothing was written: the sibling rack's version
	// stamps are still the ones the buffer was cloned with.
	for _, v := range topo.Machines() {
		if v != mc && buf.subVer[v] != 0 {
			t.Fatalf("machine %d restamped by a mutation of machine %d", v, mc)
		}
	}
	live.Faults().FailMachine(mc)
	buf.refreshFrom(live)
	if !reflect.DeepEqual(buf, live.Clone()) {
		t.Error("refresh after a fault differs from a clone")
	}
}

// TestViewPinProtocol walks the two-buffer protocol on one goroutine: a
// reader that stays inside view across two mutations pins its buffer, so
// the second reader after it cannot refresh the spare and takes the Clone
// fallback; the pinned buffer is never written; and once everyone has left
// the manager refreshes in place again, between the same two buffers.
func TestViewPinProtocol(t *testing.T) {
	m := newTestManager(t, smallThreeTier(), 0.05)
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 3, Sigma: 1}}
	admit := func() {
		t.Helper()
		if _, err := m.AllocateHomog(req); err != nil {
			t.Fatal(err)
		}
	}
	ptr := func() *Ledger { return view(m, func(led *Ledger) *Ledger { return led }) }

	var a, b, c *Ledger
	view(m, func(slow *Ledger) bool {
		a = slow
		before := hashLedger(slow)
		admit()
		b = ptr() // no spare yet: a Clone, and a becomes the (pinned) spare
		admit()
		c = ptr() // the spare is pinned by this view: the fallback Clone
		if a == b || b == c || a == c {
			t.Fatalf("buffers a=%p b=%p c=%p: want three distinct ledgers", a, b, c)
		}
		checkViewEqualsClone(t, m, 0)
		if hashLedger(slow) != before {
			t.Error("a pinned snapshot was written while its reader was inside view")
		}
		return true
	})
	// At rest: the manager holds b and c; a was left to its reader.
	if m.cur.led != c || m.spare.led != b || m.cur.pins.Load() != 0 || m.spare.pins.Load() != 0 {
		t.Fatalf("at rest: cur=%p spare=%p, want %p and %p, both unpinned", m.cur.led, m.spare.led, c, b)
	}
	for i := 0; i < 4; i++ {
		admit()
		got := ptr()
		if want := []*Ledger{b, c}[i%2]; got != want {
			t.Fatalf("refresh %d served %p, want the spare %p refreshed in place", i, got, want)
		}
		checkViewEqualsClone(t, m, i)
	}
}

// hashLedger digests everything a reader can observe of a ledger.
func hashLedger(l *Ledger) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for v := range l.links {
		s := &l.links[v]
		put(math.Float64bits(s.det))
		put(math.Float64bits(s.sumMu))
		put(math.Float64bits(s.sumVar))
		put(uint64(s.stochastic))
		put(uint64(l.used[v]))
		put(l.subVer[v])
		id := topology.NodeID(v)
		if l.topo.Node(id).IsMachine() && l.faults.MachineDown(id) {
			put(1)
		}
		if l.topo.Node(id).Parent != topology.None && l.faults.LinkDown(id) {
			put(2)
		}
	}
	put(l.faults.Epoch())
	return h.Sum64()
}

// TestViewSlowReaderStress is the pin protocol under -race: slow readers
// stay inside view until at least two mutations have landed and a fast
// reader has been served, writers churn admissions, releases and faults,
// and fast readers keep arriving. Every reader hashes its view on entry
// and exit; the Clone fallback must have been taken (more than the two
// resident buffers were handed out); and once everything has stopped the
// manager references two unpinned buffers and the rest are collectable.
func TestViewSlowReaderStress(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 6, SlotsPerMachine: 4, HostCap: 1000, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	var (
		seenMu    sync.Mutex
		seen      = map[uintptr]bool{} // distinct buffers handed to readers, by address
		collected atomic.Int64
		fastReads atomic.Int64
		stop      atomic.Bool
	)
	// read runs hold inside one view and checks the view did not change
	// under it. Buffers are tracked by address only, so the test keeps none
	// of them alive.
	read := func(hold func()) {
		view(m, func(led *Ledger) bool {
			seenMu.Lock()
			if key := reflect.ValueOf(led).Pointer(); !seen[key] {
				seen[key] = true
				runtime.SetFinalizer(led, func(*Ledger) { collected.Add(1) })
			}
			seenMu.Unlock()
			before := hashLedger(led)
			hold()
			if hashLedger(led) != before {
				t.Error("a snapshot changed while a reader was inside view")
			}
			return true
		})
	}

	handedOut := func() int {
		seenMu.Lock()
		defer seenMu.Unlock()
		return len(seen)
	}
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ { // slow readers
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				read(func() {
					v0, f0 := m.Version(), fastReads.Load()
					for !stop.Load() && (m.Version() < v0+2 || fastReads.Load() == f0) {
						runtime.Gosched()
					}
				})
			}
		}()
	}
	for g := 0; g < 2; g++ { // fast readers
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				read(func() {})
				m.CanAllocateHomog(Homogeneous{N: 4, Demand: stats.Normal{Mu: 100, Sigma: 30}})
				m.MaxOccupancy()
				fastReads.Add(1)
				runtime.Gosched()
			}
		}()
	}
	// Writers churn until the readers have been through the fallback a few
	// times (the two resident buffers plus three more), within a bound.
	giveUp := time.Now().Add(20 * time.Second)
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			r := stats.NewRand(seed)
			var live []JobID
			for i := 0; (i < 150 || handedOut() < 5) && time.Now().Before(giveUp); i++ {
				mu := r.UniformRange(50, 300)
				if a, err := m.AllocateHomog(Homogeneous{N: r.UniformInt(1, 6), Demand: stats.Normal{Mu: mu, Sigma: 0.3 * mu}}); err == nil {
					live = append(live, a.ID)
				}
				if len(live) > 0 && r.Float64() < 0.6 {
					if err := m.Release(live[0]); err != nil {
						t.Errorf("Release(%d): %v", live[0], err)
						return
					}
					live = live[1:]
				}
				if i%25 == 0 {
					mc := topo.Machines()[r.IntN(len(topo.Machines()))]
					if err := m.SetOffline(mc, i%50 == 0); err != nil {
						t.Errorf("SetOffline: %v", err)
						return
					}
				}
				runtime.Gosched()
			}
		}(uint64(300 + g))
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	total := handedOut()
	if fallbacks := total - 2; fallbacks < 1 {
		t.Errorf("readers saw %d distinct buffers: the Clone fallback was never taken", total)
	}
	checkViewEqualsClone(t, m, -1)
	if m.cur.pins.Load() != 0 || m.spare.pins.Load() != 0 {
		t.Errorf("at rest: pins cur=%d spare=%d, want 0", m.cur.pins.Load(), m.spare.pins.Load())
	}
	// Every buffer but the two resident ones is garbage now.
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < int64(total-2) && time.Now().Before(deadline) {
		runtime.GC()
		runtime.Gosched()
	}
	if got := collected.Load(); got < int64(total-2) {
		t.Errorf("%d of %d handed-out buffers collected: more than two stay referenced at rest", got, total)
	}
}

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
		if _, err := m.PlanHomog(req); err != nil {
			t.Fatal(err)
		}
	})
	if dry != 0 {
		t.Errorf("warm homogeneous dry run allocates %v times, want 0", dry)
	}
	if plan-dry < 2 {
		t.Errorf("admission plan allocates %v times, dry run %v: want the plan to pay for at least the placement and contribution slices", plan, dry)
	}
	hdry := testing.AllocsPerRun(50, func() { m.CanAllocateHetero(hreq) })
	hplan := testing.AllocsPerRun(50, func() {
		if _, err := m.PlanHetero(hreq); err != nil {
			t.Fatal(err)
		}
	})
	// Both sort the request by percentile and render the cache key; only
	// the plan builds the per-machine VM lists, placement and contributions.
	if hplan-hdry < 2 {
		t.Errorf("hetero admission plan allocates %v times, dry run %v: want the plan to pay for at least the placement and contribution slices", hplan, hdry)
	}
}
