package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// cachedShape is one request shape as the equivalence tests drive it:
// through a plan cache, and through a table nothing has used before — the
// reference every cached plan must equal bit for bit. entry names the
// shape's resident cache entry, nil when it has none.
type cachedShape struct {
	cached func(c *planCache, led *Ledger) (Placement, []Contribution, error)
	fresh  func(led *Ledger) (Placement, []Contribution, error)
	entry  func(c *planCache) any
}

func homogShape(req Homogeneous, policy Policy, scope *planScope) cachedShape {
	return cachedShape{
		cached: func(c *planCache, led *Ledger) (Placement, []Contribution, error) {
			return c.allocateHomog(led, req, policy, scope, true)
		},
		fresh: func(led *Ledger) (Placement, []Contribution, error) {
			t := new(homogTable)
			t.reset(led.Topology(), scope, req, policy)
			p, contribs, _, err := t.plan(led, scope)
			return p, contribs, err
		},
		entry: func(c *planCache) any {
			if t, ok := c.homog.entries[homogKey{demand: canonDemand(req.Demand), n: req.N, policy: policy}]; ok {
				return t
			}
			return nil
		},
	}
}

func heteroShape(req Heterogeneous, policy Policy, scope *planScope) cachedShape {
	return cachedShape{
		cached: func(c *planCache, led *Ledger) (Placement, []Contribution, error) {
			return c.allocateHeteroSubstring(led, req, policy, scope, true)
		},
		fresh: func(led *Ledger) (Placement, []Contribution, error) {
			t := new(substrTable)
			t.reset(led.Topology(), scope, req, orderByPercentile(req), policy)
			p, contribs, _, err := t.plan(led, scope)
			return p, contribs, err
		},
		entry: func(c *planCache) any {
			if t, ok := c.hetero.entries[substrCacheKey(req, orderByPercentile(req), policy)]; ok {
				return t
			}
			return nil
		},
	}
}

// planBoth plans the shape through the cache and on a fresh table and
// fails unless the two agree: same feasibility, same placement entries,
// same link contributions.
func planBoth(t *testing.T, where string, c *planCache, led *Ledger, s cachedShape) (Placement, []Contribution, error) {
	t.Helper()
	p, contribs, err := s.cached(c, led)
	fp, fcontribs, ferr := s.fresh(led)
	if (err == nil) != (ferr == nil) {
		t.Fatalf("%s: cached err = %v, fresh-table err = %v", where, err, ferr)
	}
	if err == nil {
		if !reflect.DeepEqual(p.Entries, fp.Entries) {
			t.Fatalf("%s: cached placement %v != fresh-table %v", where, &p, &fp)
		}
		if !reflect.DeepEqual(contribs, fcontribs) {
			t.Fatalf("%s: cached contribs differ from the fresh table's", where)
		}
	}
	return p, contribs, err
}

// partialHits counts the cached hits that land above the machine level on
// an entry whose previous hit landed on a machine: the machine-level stop
// leaves such a table partly settled — the machines past the one it chose,
// and everything above them, as they were — and the later plan must read
// it as a cold plan would.
type partialHits struct {
	onMachine map[any]bool // entries whose last hit landed on a machine
	count     int
}

// observe classifies one plan of s whose hit counter read hitsBefore
// before it ran.
func (h *partialHits) observe(c *planCache, s cachedShape, hitsBefore int64, p Placement, err error) {
	e := s.entry(c)
	if c.stats.Hits == hitsBefore || e == nil || err != nil {
		return
	}
	if h.onMachine == nil {
		h.onMachine = map[any]bool{}
	}
	// No single machine can host a plan that landed above the machines.
	onMachine := len(p.Entries) == 1
	if !onMachine && h.onMachine[e] {
		h.count++
	}
	h.onMachine[e] = onMachine
}

// randomScope returns nil or the plan scope of a random switch.
func randomScope(t *testing.T, r *stats.Rand, tp *topology.Topology) *planScope {
	t.Helper()
	if r.IntN(2) == 0 {
		return nil
	}
	level := r.UniformInt(1, tp.Height())
	verts := tp.AtLevel(level)
	scope, err := newPlanScope(tp, verts[r.IntN(len(verts))])
	if err != nil {
		t.Fatalf("newPlanScope: %v", err)
	}
	return scope
}

var allPolicies = []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack}

// checkCacheLifecycle walks one shape through every state the cache can
// hold it in — first sight, promoted, hit, evicted, first sight again,
// re-promoted — with a commit, a release and a fault-epoch change between
// plans, checking the counters and the fresh-table equivalence at every
// step. fillers are enough other shapes to push the subject out.
func checkCacheLifecycle(t *testing.T, led *Ledger, subject cachedShape, fillers []cachedShape) {
	t.Helper()
	c := newPlanCache()
	step := func(where string, wantHits, wantMisses int64) (Placement, []Contribution) {
		t.Helper()
		before := c.stats
		p, contribs, err := planBoth(t, where, c, led, subject)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		after := c.stats
		if after.Hits-before.Hits != wantHits || after.Misses-before.Misses != wantMisses {
			t.Fatalf("%s: counted %d hits %d misses, want %d and %d", where,
				after.Hits-before.Hits, after.Misses-before.Misses, wantHits, wantMisses)
		}
		return p, contribs
	}

	p, contribs := step("first sight", 0, 1)
	commit(led, &p, contribs)
	step("second sight, after a commit", 0, 1)
	step("hit", 1, 0)
	if st := c.stats; st.Invalidations != 0 {
		t.Fatalf("unchanged replan recomputed %d records", st.Invalidations)
	}
	rollback(led, &p, contribs)
	step("hit after a release", 1, 0)
	if st := c.stats; st.Invalidations == 0 {
		t.Fatal("a release under a resident entry invalidated nothing")
	}
	m := led.Topology().Machines()[0]
	led.Faults().FailMachine(m)
	step("hit across a fault epoch", 1, 0)
	led.Faults().RestoreMachine(m)
	step("hit after the restore", 1, 0)

	for i, f := range fillers {
		for sight := 0; sight < 2; sight++ {
			planBoth(t, "filler", c, led, f)
		}
		if st := c.stats; i < len(fillers)-1 && st.Evictions != 0 {
			t.Fatalf("evicted after %d of %d fillers", i+1, len(fillers))
		}
	}
	if st := c.stats; st.Evictions != 1 {
		t.Fatalf("after the fillers: %+v, want exactly the subject evicted", st)
	}
	p, contribs = step("first sight after eviction", 0, 1)
	commit(led, &p, contribs)
	step("re-promoted, after a commit", 0, 1)
	step("hit on the re-promoted entry", 1, 0)
	rollback(led, &p, contribs)
}

// lifecycleLedger returns a fresh ledger over smallThreeTier and, when
// scoped, the plan scope of its first rack.
func lifecycleLedger(t *testing.T, scoped bool) (*Ledger, *planScope) {
	t.Helper()
	tp := mustTopo(smallThreeTier())
	led, err := NewLedger(tp, 0.05)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	if !scoped {
		return led, nil
	}
	scope, err := newPlanScope(tp, tp.AtLevel(1)[0])
	if err != nil {
		t.Fatalf("newPlanScope: %v", err)
	}
	return led, scope
}

// TestPlanCacheEquivalenceHomog holds the cached homogeneous DP to the
// cold one. The lifecycle half walks one shape through every cache state
// for each policy, scoped and unscoped; the fuzz half runs random
// topologies, scopes and commit/rollback/background-demand/fault/slot
// interleavings over a pool of repeating shapes plus one-off ones. Every
// cached plan must be bit-identical to a fresh table's on the same ledger
// state.
func TestPlanCacheEquivalenceHomog(t *testing.T) {
	for _, policy := range allPolicies {
		for _, scoped := range []bool{false, true} {
			led, scope := lifecycleLedger(t, scoped)
			subject := homogShape(Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}, policy, scope)
			fillers := make([]cachedShape, maxHomogPlanEntries)
			for i := range fillers {
				fillers[i] = homogShape(Homogeneous{N: 1, Demand: stats.Normal{Mu: 1 + float64(i), Sigma: 1}}, policy, scope)
			}
			checkCacheLifecycle(t, led, subject, fillers)
		}
	}

	r := stats.NewRand(4242)
	var total planCacheStats
	var partial partialHits
	for trial := 0; trial < 40; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		scope := randomScope(t, r, tp)
		cache := newPlanCache()
		randShape := func() cachedShape {
			req := Homogeneous{
				N:      r.UniformInt(1, min(6, tp.TotalSlots())),
				Demand: stats.Normal{Mu: r.UniformRange(1, 12), Sigma: r.UniformRange(0, 5)},
			}
			return homogShape(req, allPolicies[r.IntN(len(allPolicies))], scope)
		}
		// Two more repeating shapes than the cache holds, so residents
		// are hit, recomputed, evicted and re-promoted along the way.
		pool := make([]cachedShape, maxHomogPlanEntries+2)
		for i := range pool {
			pool[i] = randShape()
		}
		type liveJob struct {
			p        Placement
			contribs []Contribution
		}
		var jobs []liveJob
		for step := 0; step < 120; step++ {
			shape := pool[r.IntN(len(pool))]
			if r.IntN(5) == 0 {
				shape = randShape() // a one-off: planned cold, never resident
			}
			hits := cache.stats.Hits
			p, contribs, err := planBoth(t, "fuzz", cache, led, shape)
			partial.observe(cache, shape, hits, p, err)
			switch r.IntN(6) {
			case 0: // commit the plan: invalidates the placement's paths
				if err == nil {
					commit(led, &p, contribs)
					jobs = append(jobs, liveJob{p, contribs})
				}
			case 1: // roll a previous commit back
				if len(jobs) > 0 {
					idx := r.IntN(len(jobs))
					j := jobs[idx]
					rollback(led, &j.p, j.contribs)
					jobs = append(jobs[:idx], jobs[idx+1:]...)
				}
			case 2: // background deterministic demand on a random link
				links := tp.Links()
				link := links[r.IntN(len(links))]
				led.AddDet(link, r.UniformRange(0, 0.3*tp.LinkCap(link)))
			case 3: // fault churn: epoch bump must drop the whole table
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				led.Faults().FailMachine(m)
				if r.Float64() < 0.7 {
					led.Faults().RestoreMachine(m)
				}
			case 4: // raw slot churn on a random machine
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				if led.FreeSlots(m) > 0 {
					led.UseSlots(m, 1)
				}
			default:
				// No mutation: the next plan for this shape is a pure hit.
			}
		}
		st := cache.stats
		total.Hits += st.Hits
		total.Invalidations += st.Invalidations
		total.Evictions += st.Evictions
	}
	if total.Hits == 0 || total.Invalidations == 0 || total.Evictions == 0 {
		t.Fatalf("the interleavings did not exercise reuse, recompute and eviction: %+v", total)
	}
	if partial.count == 0 {
		t.Fatal("no cached hit landed above the machines on a table a machine-level hit left partly settled")
	}
	t.Logf("%d hits above the machines on partly settled tables", partial.count)
}

// TestPlanCacheEquivalenceHetero is the heterogeneous-substring twin of
// the homogeneous equivalence test.
func TestPlanCacheEquivalenceHetero(t *testing.T) {
	for _, policy := range allPolicies {
		for _, scoped := range []bool{false, true} {
			led, scope := lifecycleLedger(t, scoped)
			subject := heteroShape(Heterogeneous{Demands: []stats.Normal{{Mu: 5, Sigma: 2}, {Mu: 3, Sigma: 1}}}, policy, scope)
			fillers := make([]cachedShape, maxHeteroPlanEntries)
			for i := range fillers {
				fillers[i] = heteroShape(Heterogeneous{Demands: []stats.Normal{{Mu: 1 + float64(i), Sigma: 1}}}, policy, scope)
			}
			checkCacheLifecycle(t, led, subject, fillers)
		}
	}

	r := stats.NewRand(5353)
	var total planCacheStats
	var partial partialHits
	for trial := 0; trial < 30; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		scope := randomScope(t, r, tp)
		cache := newPlanCache()
		randShape := func() cachedShape {
			req := randHetero(r, r.UniformInt(1, min(5, tp.TotalSlots())), 1, 10)
			return heteroShape(req, allPolicies[r.IntN(len(allPolicies))], scope)
		}
		pool := make([]cachedShape, maxHeteroPlanEntries+2)
		for i := range pool {
			pool[i] = randShape()
		}
		type liveJob struct {
			p        Placement
			contribs []Contribution
		}
		var jobs []liveJob
		for step := 0; step < 60; step++ {
			shape := pool[r.IntN(len(pool))]
			if r.IntN(5) == 0 {
				shape = randShape()
			}
			hits := cache.stats.Hits
			p, contribs, err := planBoth(t, "fuzz", cache, led, shape)
			partial.observe(cache, shape, hits, p, err)
			switch r.IntN(5) {
			case 0:
				if err == nil {
					commit(led, &p, contribs)
					jobs = append(jobs, liveJob{p, contribs})
				}
			case 1:
				if len(jobs) > 0 {
					idx := r.IntN(len(jobs))
					j := jobs[idx]
					rollback(led, &j.p, j.contribs)
					jobs = append(jobs[:idx], jobs[idx+1:]...)
				}
			case 2:
				links := tp.Links()
				link := links[r.IntN(len(links))]
				led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(0, 6), Sigma: r.UniformRange(0, 3)})
			case 3:
				machines := tp.Machines()
				m := machines[r.IntN(len(machines))]
				led.Faults().FailMachine(m)
				if r.Float64() < 0.7 {
					led.Faults().RestoreMachine(m)
				}
			default:
			}
		}
		st := cache.stats
		total.Hits += st.Hits
		total.Invalidations += st.Invalidations
		total.Evictions += st.Evictions
	}
	if total.Hits == 0 || total.Invalidations == 0 || total.Evictions == 0 {
		t.Fatalf("the interleavings did not exercise reuse, recompute and eviction: %+v", total)
	}
	if partial.count == 0 {
		t.Fatal("no cached hit landed above the machines on a table a machine-level hit left partly settled")
	}
	t.Logf("%d hits above the machines on partly settled tables", partial.count)
}

// TestPlanTablesIgnoreStaleCells: layout reuses slabs without clearing
// them, on the promise that the kernels write every cell before anything
// reads it. Plan on tables whose slabs are poisoned — NaN occupancies,
// every count allocable, absurd split choices, a wrong crossing table —
// and require the placements of tables fresh from the allocator. The same
// holds for what a repair leaves in a pooled table: reset drops its pins
// and its relaxed filter.
func TestPlanTablesIgnoreStaleCells(t *testing.T) {
	poison := func(d *dpTable) {
		for i := range d.f64 {
			d.f64[i] = math.NaN()
		}
		for i := range d.bl {
			d.bl[i] = true
		}
		for i := range d.i32 {
			d.i32[i] = 1 << 20
		}
	}
	r := stats.NewRand(777)
	for trial := 0; trial < 60; trial++ {
		tp := randomTopology(r)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatalf("trial %d: NewLedger: %v", trial, err)
		}
		scope := randomScope(t, r, tp)
		policy := allPolicies[r.IntN(len(allPolicies))]
		// A larger request first, so the poisoned slabs are roomy enough
		// to be reused as they are.
		big := Homogeneous{N: tp.TotalSlots(), Demand: stats.Normal{Mu: 1}}
		req := Homogeneous{N: r.UniformInt(1, min(8, tp.TotalSlots())), Demand: stats.Normal{Mu: r.UniformRange(1, 12), Sigma: r.UniformRange(0, 5)}}
		ht := new(homogTable)
		ht.reset(tp, scope, big, policy)
		poison(&ht.dpTable)
		for i := range ht.crossing {
			ht.crossing[i] = stats.Normal{Mu: math.NaN(), Sigma: math.NaN()}
		}
		// A repair's plan goes first — one VM pinned to the scope's last
		// machine, the uplink filter relaxed — and must match the same plan
		// on a fresh table; the plain plan that follows on the same table
		// must then see neither the poison nor the repair's inputs.
		machines := scopeAtLevel(tp, scope, 0)
		repairPlan := func(t *homogTable) (Placement, []Contribution, error) {
			t.reset(tp, scope, req, policy)
			t.relax = true
			t.pin(tp, machines[len(machines)-1], 1)
			p, contribs, _, err := t.plan(led, scope)
			return p, contribs, err
		}
		p, contribs, err := repairPlan(ht)
		fp, fcontribs, ferr := repairPlan(new(homogTable))
		if (err == nil) != (ferr == nil) || !reflect.DeepEqual(p.Entries, fp.Entries) || !reflect.DeepEqual(contribs, fcontribs) {
			t.Fatalf("trial %d: pinned plan on poisoned slabs: %v (err %v), fresh table: %v (err %v)", trial, &p, err, &fp, ferr)
		}
		ht.reset(tp, scope, req, policy)
		p, contribs, _, err = ht.plan(led, scope)
		fp, fcontribs, ferr = homogShape(req, policy, scope).fresh(led)
		if (err == nil) != (ferr == nil) || !reflect.DeepEqual(p.Entries, fp.Entries) || !reflect.DeepEqual(contribs, fcontribs) {
			t.Fatalf("trial %d: homog plan on poisoned slabs after a pinned one: %v (err %v), fresh table: %v (err %v)", trial, &p, err, &fp, ferr)
		}

		hbig := randHetero(r, min(8, tp.TotalSlots()), 1, 10)
		hreq := randHetero(r, r.UniformInt(1, hbig.N()), 1, 10)
		st := new(substrTable)
		st.reset(tp, scope, hbig, orderByPercentile(hbig), policy)
		poison(&st.dpTable)
		for i := range st.crossing {
			st.crossing[i] = stats.Normal{Mu: math.NaN(), Sigma: math.NaN()}
		}
		st.reset(tp, scope, hreq, orderByPercentile(hreq), policy)
		p, contribs, _, err = st.plan(led, scope)
		fp, fcontribs, ferr = heteroShape(hreq, policy, scope).fresh(led)
		if (err == nil) != (ferr == nil) || !reflect.DeepEqual(p.Entries, fp.Entries) || !reflect.DeepEqual(contribs, fcontribs) {
			t.Fatalf("trial %d: hetero plan on poisoned slabs: %v (err %v), fresh table: %v (err %v)", trial, &p, err, &fp, ferr)
		}
	}
}

// TestPlanCacheCounters pins the counter semantics: every plan is one hit
// or one miss; a shape's first two plans are misses (cold, then building
// its entry), an unchanged replan after that is a hit with no
// invalidations, a commit makes the next hit recompute only the touched
// paths, and overflowing either shelf evicts.
func TestPlanCacheCounters(t *testing.T) {
	led, err := NewLedger(mustTopo(smallThreeTier()), 0.05)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	c := newPlanCache()
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}

	p1, contribs, err := c.allocateHomog(led, req, MinMaxOccupancy, nil, true)
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if st := c.stats; st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first plan: %+v, want 1 miss 0 hits", st)
	}
	if _, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil, true); err != nil {
		t.Fatalf("second plan: %v", err)
	}
	if st := c.stats; st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("after second plan: %+v, want 2 misses 0 hits", st)
	}

	p2, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil, true)
	if err != nil {
		t.Fatalf("replan: %v", err)
	}
	if !reflect.DeepEqual(p1.Entries, p2.Entries) {
		t.Fatalf("unchanged replan differs: %v vs %v", &p1, &p2)
	}
	if st := c.stats; st.Hits != 1 || st.Invalidations != 0 {
		t.Fatalf("after unchanged replan: %+v, want 1 hit 0 invalidations", st)
	}

	commit(led, &p1, contribs)
	if _, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil, true); err != nil {
		t.Fatalf("post-commit plan: %v", err)
	}
	st := c.stats
	if st.Hits != 2 || st.Invalidations == 0 {
		t.Fatalf("after post-commit replan: %+v, want 2 hits and >0 invalidations", st)
	}
	// The commit touched two machines' root paths at most; with 4
	// machines + 2 racks + 1 root, an incremental replan must recompute
	// strictly fewer records than the 7-vertex full fill.
	if st.Invalidations >= int64(led.Topology().Len()) {
		t.Fatalf("post-commit replan recomputed %d records, want < %d (incremental)",
			st.Invalidations, led.Topology().Len())
	}

	for i := 0; i < maxHomogPlanEntries; i++ {
		r := Homogeneous{N: 1, Demand: stats.Normal{Mu: 1 + float64(i), Sigma: 1}}
		for sight := 0; sight < 2; sight++ {
			if _, _, err := c.allocateHomog(led, r, MinMaxOccupancy, nil, true); err != nil {
				t.Fatalf("fill plan %d: %v", i, err)
			}
		}
	}
	if st := c.stats; st.Evictions != 1 {
		t.Fatalf("after overflowing the homog shelf by one: %+v, want 1 eviction", st)
	}

	for i := 0; i <= maxHeteroPlanEntries; i++ {
		r := Heterogeneous{Demands: []stats.Normal{{Mu: 1 + float64(i), Sigma: 1}}}
		for sight := 0; sight < 2; sight++ {
			if _, _, err := c.allocateHeteroSubstring(led, r, MinMaxOccupancy, nil, true); err != nil {
				t.Fatalf("hetero fill plan %d: %v", i, err)
			}
		}
	}
	st = c.stats
	if st.Evictions != 2 {
		t.Fatalf("after overflowing both shelves by one: %+v, want 2 evictions", st)
	}
	if plans := int64(4 + 2*maxHomogPlanEntries + 2*(maxHeteroPlanEntries+1)); st.Hits+st.Misses != plans {
		t.Fatalf("%d plans counted as %d hits + %d misses", plans, st.Hits, st.Misses)
	}
}

// TestPlanReadsOnlyWhatItSelects pins which records a cached plan
// recomputes on the paper tree after churn: only those its selection
// reads. An N = 2 plan lands on the first machine that fits, so it
// recomputes the stale machines up to that one and no record above the
// machines. An N = 16 plan cannot land on a 4-slot machine: it recomputes
// the stale racks together with the stale machines under them, and no
// machine under a rack that is current.
func TestPlanReadsOnlyWhatItSelects(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c := newPlanCache()
	demand := stats.Normal{Mu: 100, Sigma: 40}
	small, wide := Homogeneous{N: 2, Demand: demand}, Homogeneous{N: 16, Demand: demand}
	plan := func(req Homogeneous) (Placement, int64) {
		t.Helper()
		before := c.stats.Invalidations
		p, _, err := c.allocateHomog(led, req, MinMaxOccupancy, nil, true)
		if err != nil {
			t.Fatalf("N = %d: %v", req.N, err)
		}
		return p, c.stats.Invalidations - before
	}
	table := func(req Homogeneous) *homogTable {
		return c.homog.entries[homogKey{demand: canonDemand(req.Demand), n: req.N, policy: MinMaxOccupancy}]
	}
	for sight := 0; sight < 2; sight++ {
		plan(small)
		plan(wide)
	}

	// Churn: cold-planned jobs of 1 to 12 VMs come and go, so machines
	// early and late in topology order, and the racks above them, move.
	r := stats.NewRand(34)
	type job struct {
		p        Placement
		contribs []Contribution
	}
	var jobs []job
	machines, racks := topo.AtLevel(0), topo.AtLevel(1)
	var pastFirst, currentRacks int
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			if len(jobs) > 0 && r.IntN(3) == 0 {
				k := r.IntN(len(jobs))
				rollback(led, &jobs[k].p, jobs[k].contribs)
				jobs = append(jobs[:k], jobs[k+1:]...)
				continue
			}
			req := Homogeneous{N: r.UniformInt(1, 12), Demand: stats.Normal{Mu: r.UniformRange(50, 300), Sigma: r.UniformRange(0, 100)}}
			p, contribs, err := AllocateHomog(led, req, MinMaxOccupancy)
			if err != nil {
				t.Fatal(err)
			}
			commit(led, &p, contribs)
			jobs = append(jobs, job{p, contribs})
		}

		tb, want, first := table(small), int64(0), topology.None
		for _, m := range machines {
			if !tb.current(led, m) {
				if first != topology.None {
					pastFirst++
					continue
				}
				want++
			}
			if first == topology.None && led.FreeSlots(m) >= small.N {
				first = m
			}
		}
		p, got := plan(small)
		if len(p.Entries) != 1 || p.Entries[0].Machine != first {
			t.Fatalf("round %d: N = 2 placed %v, want machine %d", round, &p, first)
		}
		if got != want {
			t.Fatalf("round %d: N = 2 recomputed %d records, want the %d stale machines up to machine %d", round, got, want, first)
		}

		tb, want = table(wide), 0
		for _, rack := range racks {
			if tb.current(led, rack) {
				currentRacks++
				continue
			}
			want++
			for _, m := range topo.Node(rack).Children {
				if !tb.current(led, m) {
					want++
				}
			}
		}
		p, got = plan(wide)
		if rack := topo.Node(p.Entries[0].Machine).Parent; topo.Node(p.Entries[len(p.Entries)-1].Machine).Parent != rack {
			t.Fatalf("round %d: N = 16 placed %v across racks", round, &p)
		}
		if got != want {
			t.Fatalf("round %d: N = 16 recomputed %d records, want %d: the stale racks and the stale machines under them", round, got, want)
		}
	}
	// The churn must leave something for an eager settle to recompute.
	if pastFirst == 0 || currentRacks == 0 {
		t.Errorf("weak churn: %d stale machines past the first fit, %d current racks", pastFirst, currentRacks)
	}
}

// paperManager returns a manager over the paper's datacenter with a few
// tenants admitted, so plans are not trivially machine-local.
func paperManager(t testing.TB) *Manager {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.AllocateHomog(Homogeneous{N: 49, Demand: stats.Normal{Mu: 300, Sigma: 150}}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestPlanCacheMissAllocations is the tripwire on the miss path: a plan of
// a never-seen key runs in a pooled table and must cost its arithmetic,
// not a heap object per table cell. Before the slab-backed table, the
// homogeneous plan below allocated about 4 300 objects (1.4 MB) and the
// heterogeneous one about as many.
func TestPlanCacheMissAllocations(t *testing.T) {
	m := paperManager(t)
	const maxObjects = 100
	i := 0
	homog := func() {
		i++
		if !m.CanAllocateHomog(Homogeneous{N: 16, Demand: stats.Normal{Mu: 300, Sigma: 100 + float64(i)/1024}}) {
			t.Fatal("dry run rejected on a lightly loaded datacenter")
		}
	}
	demands := make([]stats.Normal, 8)
	for v := range demands {
		demands[v] = stats.Normal{Mu: float64(100 * (1 + v%5)), Sigma: float64(20 * (1 + v))}
	}
	hetero := func() {
		i++
		demands[0].Sigma = 20 + float64(i)/1024
		if !m.CanAllocateHetero(Heterogeneous{Demands: demands}) {
			t.Fatal("hetero dry run rejected on a lightly loaded datacenter")
		}
	}
	for name, plan := range map[string]func(){"homog N=16": homog, "hetero N=8": hetero} {
		before := m.AdmissionStats()
		n := testing.AllocsPerRun(50, plan)
		t.Logf("%s: %.0f objects per fresh-key plan", name, n)
		if n >= maxObjects {
			t.Errorf("%s: a fresh key allocates %.0f objects per plan, want < %d", name, n, maxObjects)
		}
		after := m.AdmissionStats()
		if after.PlanCacheHits != before.PlanCacheHits || after.PlanCacheMisses == before.PlanCacheMisses {
			t.Errorf("%s: fresh keys counted as hits: before %+v after %+v", name, before, after)
		}
	}
}

// TestPlanCacheScanResistance: one-off shapes must not displace the
// shapes that repeat. Warm the eight catalogue flavours, then interleave
// a hundred never-repeated keys with them: all eight stay resident —
// every catalogue plan keeps hitting and nothing is evicted.
func TestPlanCacheScanResistance(t *testing.T) {
	m := paperManager(t)
	var catalogue []Homogeneous
	for _, d := range []stats.Normal{{Mu: 100, Sigma: 40}, {Mu: 300, Sigma: 100}} {
		for _, n := range []int{2, 4, 8, 16} {
			catalogue = append(catalogue, Homogeneous{N: n, Demand: d})
		}
	}
	for sight := 0; sight < 2; sight++ {
		for _, req := range catalogue {
			m.CanAllocateHomog(req)
		}
	}
	before := m.AdmissionStats()
	for i := 0; i < 100; i++ {
		m.CanAllocateHomog(Homogeneous{N: 2 + i%40, Demand: stats.Normal{Mu: 200, Sigma: 50 + float64(i)/8}})
		m.CanAllocateHomog(catalogue[i%len(catalogue)])
	}
	after := m.AdmissionStats()
	if got := after.PlanCacheHits - before.PlanCacheHits; got != 100 {
		t.Errorf("catalogue plans hit %d times out of 100", got)
	}
	if got := after.PlanCacheMisses - before.PlanCacheMisses; got != 100 {
		t.Errorf("one-off plans missed %d times out of 100", got)
	}
	if after.PlanCacheEvictions != 0 {
		t.Errorf("%d entries evicted by one-off keys", after.PlanCacheEvictions)
	}
}

// TestCanonDemand pins the memo-key canonicalization: negative moments
// clamp to zero (matching the contribution-time clamp of the
// moment-matched hetero min path) and NaNs collapse to the zero demand,
// so equal effective demands always share cache entries.
func TestCanonDemand(t *testing.T) {
	cases := []struct{ in, want stats.Normal }{
		{stats.Normal{Mu: 5, Sigma: 2}, stats.Normal{Mu: 5, Sigma: 2}},
		{stats.Normal{Mu: -3, Sigma: 2}, stats.Normal{Mu: 0, Sigma: 2}},
		{stats.Normal{Mu: 4, Sigma: -1}, stats.Normal{Mu: 4, Sigma: 0}},
		{stats.Normal{Mu: math.NaN(), Sigma: 2}, stats.Normal{}},
		{stats.Normal{Mu: 1, Sigma: math.NaN()}, stats.Normal{}},
	}
	for _, tc := range cases {
		if got := canonDemand(tc.in); got != tc.want {
			t.Errorf("canonDemand(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
