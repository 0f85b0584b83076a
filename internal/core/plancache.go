package core

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the incremental planning cache: per-subtree DP
// tables memoized across admission requests.
//
// The key observation is that a vertex's DP record — the allocable VM
// set, per-count optimal in-subtree occupancy and split choices — is a
// pure function of (request demand params, N, policy) and the ledger
// state inside the vertex's subtree plus its own uplink. The ledger
// stamps a subtree version on every node (Ledger.SubtreeVersion): a
// mutation at link or machine x bumps x and all its ancestors with one
// globally unique tick, so a matching version certifies the whole
// subtree — including every descendant's record — is unchanged. A
// steady-state commit therefore invalidates only the O(depth) vertices
// on its touched paths, and the next plan for the same demand shape
// recomputes just those records instead of the whole tree.
//
// Fault state is the one input that is NOT subtree-local: FreeSlots
// depends on reachability through links above the vertex. Entries
// stamp Faults().Epoch() and drop all records when it moves. This is
// sound for every ledger the manager plans on (live ledger, shared
// snapshots) because only the live ledger's fault overlay is ever
// mutated; clones never diverge on fault state, so an
// epoch value identifies one fault configuration.
//
// The compute paths below mirror homogCompute/substrCompute and the
// build/selection code operation for operation, so cached plans are
// bit-identical to cold ones — the equivalence suite in
// plancache_test.go and a sampled -tags invariants cross-check hold
// them to that.

const (
	// maxHomogPlanEntries / maxHeteroPlanEntries bound the number of
	// distinct (demand, N, policy) shapes kept warm. Hetero tables are
	// O(n^2) per vertex and so get a tighter cap. Eviction is FIFO over
	// an insertion-order slice — never a map iteration, which would leak
	// nondeterministic order into eviction choices.
	maxHomogPlanEntries  = 12
	maxHeteroPlanEntries = 4

	// planCacheSampleEvery is the sampling period of the -tags invariants
	// cross-check: every Nth cached plan is recomputed cold and compared.
	planCacheSampleEvery = 32
)

// planCacheStats is a snapshot of the cache counters.
type planCacheStats struct {
	Hits          int64 // plans served from an existing entry
	Misses        int64 // plans that had to build a new entry
	Invalidations int64 // stale vertex records recomputed on existing entries
	Evictions     int64 // entries dropped by the FIFO bound
}

// planCache memoizes per-subtree DP tables across admissions. One per
// Manager; safe for concurrent use. Plans for the same key serialize on
// the entry's mutex (they would recompute identical records anyway);
// plans for different keys run concurrently.
type planCache struct {
	mu         sync.Mutex
	homog      map[homogKey]*homogEntry
	hetero     map[string]*substrEntry
	homogFIFO  []homogKey
	heteroFIFO []string
	stats      planCacheStats
	sampleTick int64
}

func newPlanCache() *planCache {
	return &planCache{
		homog:  make(map[homogKey]*homogEntry),
		hetero: make(map[string]*substrEntry),
	}
}

// homogKey identifies one homogeneous DP table shape. The demand is
// canonicalized (canonDemand) so equal effective demands share entries.
type homogKey struct {
	demand stats.Normal
	n      int
	policy Policy
}

// cachedHomogRec is the persistent counterpart of homogRecord: same DP
// content, but backed by entry-owned slices (arena slices live only one
// call) plus the subtree version the record was computed under.
type cachedHomogRec struct {
	ver    uint64
	filled bool
	cap    int
	optIn  []float64 // len n+1
	upOcc  []float64 // len n+1
	alloc  []bool    // len n+1
	choice [][]int32 // per child, len n+1
}

// homogEntry holds one memoized homogeneous DP table. All fields are
// guarded by mu; the fill path writes recs in place, readers go through
// cachedRecords.
type homogEntry struct {
	mu       sync.Mutex
	n        int
	policy   Policy
	demand   stats.Normal   // canonical
	crossing []stats.Normal // crossing[m]: demand on a link with m of n VMs below
	epoch    uint64         // Faults().Epoch() the records were computed under
	epochSet bool
	recs     []cachedHomogRec // indexed by NodeID; nil until the first plan
	acc      []float64        // combine scratch, len n+1
	next     []float64
}

// cachedRecords returns the entry's DP table for read-only use by the
// selection scan and placement reconstruction. The tables are
// snapshot-derived shared state (the snapshotro analyzer tracks this
// accessor): all writes go through the fill path, never through the
// returned view.
func (e *homogEntry) cachedRecords() []cachedHomogRec { return e.recs }

// homogEntryFor returns the entry for the request's table shape,
// creating (and possibly evicting) under the cache lock.
func (c *planCache) homogEntryFor(req Homogeneous, policy Policy) (*homogEntry, bool) {
	key := homogKey{demand: canonDemand(req.Demand), n: req.N, policy: policy}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.homog[key]; e != nil {
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	e := &homogEntry{
		n:        key.n,
		policy:   policy,
		demand:   key.demand,
		crossing: crossingTableHomog(key.demand, key.n),
	}
	c.homog[key] = e
	c.homogFIFO = append(c.homogFIFO, key)
	if len(c.homogFIFO) > maxHomogPlanEntries {
		oldest := c.homogFIFO[0]
		c.homogFIFO = c.homogFIFO[1:]
		delete(c.homog, oldest)
		c.stats.Evictions++
	}
	return e, false
}

// AllocateHomog plans a homogeneous request against led using the cache.
// Bit-identical to core's AllocateHomog on the same ledger state. A
// non-nil scope confines planning to its subtree; entries are per-manager
// and a manager's scope is immutable, so cached records never mix scopes.
func (c *planCache) allocateHomog(led *Ledger, req Homogeneous, policy Policy, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	e, hit := c.homogEntryFor(req, policy)
	e.mu.Lock()
	p, contribs, recomputed, err := e.plan(led, scope)
	e.mu.Unlock()
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHomogScoped(led, req, policy, 1, scope)
		checkCachedPlan("homog", p, err, fp, ferr)
	}
	return p, contribs, err
}

// plan runs the level-order DP reusing every record whose subtree
// version still matches. Callers hold e.mu. Returns the number of
// vertex records recomputed.
func (e *homogEntry) plan(led *Ledger, scope *planScope) (Placement, []linkDemand, int, error) {
	topo := led.Topology()
	if e.recs == nil {
		e.recs = make([]cachedHomogRec, topo.Len())
		e.acc = make([]float64, e.n+1)
		e.next = make([]float64, e.n+1)
	}
	if ep := led.Faults().Epoch(); !e.epochSet || e.epoch != ep {
		// Fault state changed: reachability is not subtree-local, so the
		// whole table is suspect.
		for i := range e.recs {
			e.recs[i].filled = false
		}
		e.epoch = ep
		e.epochSet = true
	}
	recomputed := 0
	for level := 0; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		for _, v := range verts {
			r := &e.recs[v]
			if r.filled && r.ver == led.SubtreeVersion(v) {
				continue // children are current too: any bump below v bumps v
			}
			e.computeVertex(led, topo, v)
			r.ver = led.SubtreeVersion(v)
			r.filled = true
			recomputed++
		}
		// Selection mirrors AllocateHomogWorkers: sequential, in topology
		// order, so tie-breaking matches the cold path exactly.
		recs := e.cachedRecords()
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &recs[v]
			if rec.cap < e.n || rec.optIn[e.n] == infeasible {
				continue
			}
			val := rec.optIn[e.n]
			if e.policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			cachedHomogBuild(topo, recs, best, e.n, &p)
			p.normalize()
			req := Homogeneous{N: e.n, Demand: e.demand}
			return p, homogContributions(topo, req, &p), recomputed, nil
		}
	}
	return Placement{}, nil, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, Homogeneous{N: e.n, Demand: e.demand})
}

// computeVertex fills v's record from the ledger and the children's
// (already current) records — the same arithmetic as homogCompute, but
// into persistent storage. Every slot in [0, cap] is written before it
// can be read, so stale values from a previous fill never leak.
func (e *homogEntry) computeVertex(led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	r := &e.recs[v]
	n := e.n
	if r.optIn == nil {
		r.optIn = make([]float64, n+1)
		r.upOcc = make([]float64, n+1)
		r.alloc = make([]bool, n+1)
	}
	if node.IsMachine() {
		r.cap = min(n, led.FreeSlots(v))
		for s := 0; s <= r.cap; s++ {
			r.optIn[s] = 0
		}
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += e.recs[c].cap
		}
		r.cap = min(n, capV)
		acc, next := e.acc, e.next
		acc[0] = 0
		for s := 1; s <= r.cap; s++ {
			acc[s] = infeasible
		}
		if len(r.choice) != len(node.Children) {
			r.choice = make([][]int32, len(node.Children))
		}
		reach := 0
		for i, c := range node.Children {
			child := &e.recs[c]
			pick := r.choice[i]
			if pick == nil {
				pick = make([]int32, n+1)
				r.choice[i] = pick
			}
			for s := 0; s <= r.cap; s++ {
				next[s] = infeasible
				pick[s] = -1
			}
			for h := 0; h <= reach; h++ {
				if acc[h] == infeasible {
					continue
				}
				for s := 0; s <= child.cap && h+s <= r.cap; s++ {
					if !child.alloc[s] {
						continue
					}
					switch e.policy {
					case MinMaxOccupancy:
						val := math.Max(acc[h], math.Max(child.optIn[s], child.upOcc[s]))
						if val < next[h+s] {
							next[h+s] = val
							pick[h+s] = int32(s)
						}
					case GreedyPack:
						next[h+s] = 0
						pick[h+s] = int32(s)
					default: // FirstFeasible keeps the split found first
						if next[h+s] == infeasible {
							next[h+s] = 0
							pick[h+s] = int32(s)
						}
					}
				}
			}
			acc, next = next, acc
			reach = min(r.cap, reach+child.cap)
		}
		copy(r.optIn[:r.cap+1], acc[:r.cap+1])
	}

	isRoot := node.Parent == topology.None
	for s := 0; s <= r.cap; s++ {
		r.alloc[s] = false
		if r.optIn[s] == infeasible {
			continue
		}
		if isRoot {
			r.alloc[s] = true
			continue
		}
		r.upOcc[s] = led.OccupancyWith(v, e.crossing[s])
		r.alloc[s] = r.upOcc[s] < 1
	}
}

// cachedHomogBuild is homogBuild over the persistent records.
func cachedHomogBuild(topo *topology.Topology, records []cachedHomogRec, v topology.NodeID, s int, p *Placement) {
	if s == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: s})
		return
	}
	rec := &records[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		e := int(rec.choice[i][s])
		if e < 0 {
			panic(fmt.Sprintf("core: no cached choice for child %d of node %d at sum %d", i, v, s))
		}
		cachedHomogBuild(topo, records, node.Children[i], e, p)
		s -= e
	}
	if s != 0 {
		panic(fmt.Sprintf("core: cached reconstruction at node %d left %d VMs unassigned", v, s))
	}
}

// --- heterogeneous substring tables ---

// cachedSubstrRec is the persistent counterpart of substrRecord. Slices
// are sized for the full (n+1) x (n+1) index space so the (length, a)
// layout stays valid as maxLen moves between fills.
type cachedSubstrRec struct {
	ver    uint64
	filled bool
	maxLen int
	n      int
	optIn  []float64
	upOcc  []float64
	alloc  []bool
	choice [][]int32 // per child, len (n+1)*(n+1)
}

func (r *cachedSubstrRec) idx(length, a int) int { return length*(r.n+1) + a }

// substrEntry holds one memoized substring-DP table, keyed by the
// percentile-sorted canonical demand sequence — permutations of the
// same demand multiset share it; the caller's order slice maps substring
// positions back to its request's VM indices.
type substrEntry struct {
	mu       sync.Mutex
	n        int
	policy   Policy
	sorted   []stats.Normal // canonical, percentile-sorted
	prefix   *demandPrefix
	epoch    uint64
	epochSet bool
	recs     []cachedSubstrRec
	acc      []float64 // combine scratch, len (n+1)*(n+1)
	next     []float64
}

// cachedRecords is the read-only view of the substring table; see
// homogEntry.cachedRecords.
func (e *substrEntry) cachedRecords() []cachedSubstrRec { return e.recs }

// substrCacheKey renders the sorted canonical demand sequence and policy
// as an exact-value key (float bits, not formatted decimals).
func substrCacheKey(sorted []stats.Normal, policy Policy) string {
	var b strings.Builder
	b.Grow(2 + 34*len(sorted))
	b.WriteString(strconv.Itoa(int(policy)))
	for _, d := range sorted {
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Mu), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Sigma), 16))
	}
	return b.String()
}

func (c *planCache) substrEntryFor(key string, sorted []stats.Normal, policy Policy) (*substrEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.hetero[key]; e != nil {
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	e := &substrEntry{
		n:      len(sorted),
		policy: policy,
		sorted: sorted,
		prefix: newDemandPrefix(sorted),
	}
	c.hetero[key] = e
	c.heteroFIFO = append(c.heteroFIFO, key)
	if len(c.heteroFIFO) > maxHeteroPlanEntries {
		oldest := c.heteroFIFO[0]
		c.heteroFIFO = c.heteroFIFO[1:]
		delete(c.hetero, oldest)
		c.stats.Evictions++
	}
	return e, false
}

// allocateHeteroSubstring plans a heterogeneous request with the cached
// substring DP. Bit-identical to AllocateHeteroSubstring.
func (c *planCache) allocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	order, sorted := orderByPercentile(req)
	for i := range sorted {
		sorted[i] = canonDemand(sorted[i])
	}
	e, hit := c.substrEntryFor(substrCacheKey(sorted, policy), sorted, policy)
	e.mu.Lock()
	p, contribs, recomputed, err := e.plan(led, req, order, scope)
	e.mu.Unlock()
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHeteroSubstringScoped(led, req, policy, 1, scope)
		checkCachedPlan("hetero", p, err, fp, ferr)
	}
	return p, contribs, err
}

// plan runs the substring DP reusing current records; callers hold e.mu.
// order maps substring positions to the caller's VM indices.
func (e *substrEntry) plan(led *Ledger, req Heterogeneous, order []int, scope *planScope) (Placement, []linkDemand, int, error) {
	topo := led.Topology()
	n := e.n
	if e.recs == nil {
		e.recs = make([]cachedSubstrRec, topo.Len())
		size := (n + 1) * (n + 1)
		e.acc = make([]float64, size)
		e.next = make([]float64, size)
	}
	if ep := led.Faults().Epoch(); !e.epochSet || e.epoch != ep {
		for i := range e.recs {
			e.recs[i].filled = false
		}
		e.epoch = ep
		e.epochSet = true
	}
	recomputed := 0
	for level := 0; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		for _, v := range verts {
			r := &e.recs[v]
			if r.filled && r.ver == led.SubtreeVersion(v) {
				continue
			}
			e.computeVertex(led, topo, v)
			r.ver = led.SubtreeVersion(v)
			r.filled = true
			recomputed++
		}
		recs := e.cachedRecords()
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &recs[v]
			if rec.maxLen < n {
				continue
			}
			full := rec.idx(n, 0)
			if rec.optIn[full] == infeasible {
				continue
			}
			val := rec.optIn[full]
			if e.policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			cachedSubstrBuild(topo, recs, order, best, 0, n, &p)
			p.normalize()
			return p, heteroContributions(topo, req, &p), recomputed, nil
		}
	}
	return Placement{}, nil, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// computeVertex fills v's substring record — the same arithmetic as
// substrCompute, into persistent storage. Indices outside the current
// (maxLen, n) ranges may hold stale values; every consumer loop is
// bounded by the current caps, so they are never read.
func (e *substrEntry) computeVertex(led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	r := &e.recs[v]
	n := e.n
	if r.optIn == nil {
		size := (n + 1) * (n + 1)
		r.n = n
		r.optIn = make([]float64, size)
		r.upOcc = make([]float64, size)
		r.alloc = make([]bool, size)
	}
	if node.IsMachine() {
		r.maxLen = min(n, led.FreeSlots(v))
		size := (r.maxLen + 1) * (n + 1)
		for i := 0; i < size; i++ {
			r.optIn[i] = 0
		}
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += e.recs[c].maxLen
		}
		r.maxLen = min(n, capV)
		size := (r.maxLen + 1) * (n + 1)
		acc, next := e.acc[:size], e.next[:size]
		for i := range acc {
			acc[i] = infeasible
		}
		for a := 0; a <= n; a++ {
			acc[r.idx(0, a)] = 0
		}
		if len(r.choice) != len(node.Children) {
			r.choice = make([][]int32, len(node.Children))
		}
		reach := 0
		for i, c := range node.Children {
			child := &e.recs[c]
			pick := r.choice[i]
			if pick == nil {
				pick = make([]int32, (n+1)*(n+1))
				r.choice[i] = pick
			}
			for j := range next {
				next[j] = infeasible
				pick[j] = -1
			}
			for aLen := 0; aLen <= reach; aLen++ {
				for a := 0; a+aLen <= n; a++ {
					cur := acc[r.idx(aLen, a)]
					if cur == infeasible {
						continue
					}
					k := a + aLen
					maxChildLen := min(child.maxLen, min(r.maxLen-aLen, n-k))
					for cl := 0; cl <= maxChildLen; cl++ {
						cIdx := child.idx(cl, k)
						if !child.alloc[cIdx] {
							continue
						}
						tIdx := r.idx(aLen+cl, a)
						val := 0.0
						if e.policy == MinMaxOccupancy {
							val = math.Max(cur, math.Max(child.optIn[cIdx], child.upOcc[cIdx]))
						} else if next[tIdx] != infeasible {
							continue
						}
						if val < next[tIdx] {
							next[tIdx] = val
							pick[tIdx] = int32(k)
						}
					}
				}
			}
			acc, next = next, acc
			reach = min(r.maxLen, reach+child.maxLen)
		}
		copy(r.optIn[:size], acc[:size])
	}

	isRoot := node.Parent == topology.None
	for length := 0; length <= r.maxLen; length++ {
		for a := 0; a+length <= n; a++ {
			i := r.idx(length, a)
			r.alloc[i] = false
			if r.optIn[i] == infeasible {
				continue
			}
			if isRoot {
				r.alloc[i] = true
				continue
			}
			r.upOcc[i] = led.OccupancyWith(v, e.prefix.crossing(a, a+length))
			r.alloc[i] = r.upOcc[i] < 1
		}
	}
}

// cachedSubstrBuild is substrBuild over the persistent records.
func cachedSubstrBuild(topo *topology.Topology, records []cachedSubstrRec, order []int,
	v topology.NodeID, a, b int, p *Placement) {
	if a == b {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		vms := make([]int, 0, b-a)
		for pos := a; pos < b; pos++ {
			vms = append(vms, order[pos])
		}
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: b - a, VMs: vms})
		return
	}
	rec := &records[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		k := int(rec.choice[i][rec.idx(b-a, a)])
		if k < 0 {
			panic(fmt.Sprintf("core: no cached split for child %d of node %d over [%d,%d)", i, v, a, b))
		}
		cachedSubstrBuild(topo, records, order, node.Children[i], k, b, p)
		b = k
	}
	if b != a {
		panic(fmt.Sprintf("core: cached reconstruction at node %d left [%d,%d) unassigned", v, a, b))
	}
}

// --- counters and the sampled equivalence check ---

// notePlan folds one plan's cache effects into the counters: recomputes
// on a pre-existing entry are invalidations (a commit or fault moved the
// versions); a fresh entry's full fill is already accounted as a miss.
func (c *planCache) notePlan(hit bool, recomputed int) {
	if !hit || recomputed == 0 {
		return
	}
	c.mu.Lock()
	c.stats.Invalidations += int64(recomputed)
	c.mu.Unlock()
}

// snapshot returns the current counters.
func (c *planCache) snapshot() planCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// shouldSample gates the invariants-build cross-check to every
// planCacheSampleEvery-th cached plan. Counter-based, so sampling stays
// deterministic for a deterministic call sequence.
func (c *planCache) shouldSample() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampleTick++
	return c.sampleTick%planCacheSampleEvery == 1
}

// checkCachedPlan panics unless the cached plan matches a cold DP run on
// the same ledger state — the bit-identical contract, spot-checked at
// runtime under -tags invariants.
func checkCachedPlan(kind string, cached Placement, cachedErr error, cold Placement, coldErr error) {
	if (cachedErr == nil) != (coldErr == nil) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan feasibility (err=%v) differs from cold DP (err=%v)", kind, cachedErr, coldErr))
	}
	if cachedErr != nil {
		return
	}
	if !reflect.DeepEqual(cached.Entries, cold.Entries) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan differs from cold DP:\ncached: %v\ncold:   %v", kind, &cached, &cold))
	}
}
