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

// This file implements the incremental planning cache: DP tables kept
// across admission requests.
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
// recomputes only those its selection reads (dpTable.settle).
//
// Fault state is the one input that is NOT subtree-local: FreeSlots
// depends on reachability through links above the vertex. Tables stamp
// Faults().Epoch() and drop all records when it moves. This is sound
// because the manager plans through its cache on one ledger, the live one,
// whose fault overlay bumps its epoch on every change, so an epoch value
// identifies one fault configuration.
//
// Every plan through the cache — an admission's, a dry run's, a sampled
// cold recompute — runs under the manager's mu, so the cache keeps no
// lock of its own.
//
// Both DPs share one plan lifecycle. Their tables (homogTable,
// substrTable) are planners — settle, and plan = settle + build — and two
// functions run them: cachedPlan, every plan through the cache, binds the
// table its DP's shelf hands out to the request and runs it; coldPlan,
// behind AllocateHomog, AllocateHeteroSubstring and the sampled
// cross-check, runs the same plan on a pooled table reset for it. A cold
// plan starts from a table with no record filled, a cached one from
// whatever is still current, which after a machine-level stop is only
// part of the table. The equivalence suite in plancache_test.go and a
// sampled -tags invariants cross-check hold the reuse test to
// bit-identical placements.
//
// Admission is on second sight. A key's first plan runs cold in a pooled
// table and leaves only the key behind, in a fixed ring of ghosts; a key
// that comes back while its ghost is still in the ring is promoted to an
// entry, which takes its table from the pool — where the entry it evicts
// has just put its own. A stream of one-off shapes therefore allocates
// nothing and displaces nothing, and the shapes that do repeat stay warm.

const (
	// maxHomogPlanEntries / maxHeteroPlanEntries bound the number of
	// distinct (demand, N, policy) shapes kept warm. Hetero tables are
	// O(n^2) per vertex and so get a tighter cap. Eviction is FIFO over
	// a ring in insertion order — never a map iteration, which would leak
	// nondeterministic order into eviction choices.
	maxHomogPlanEntries  = 12
	maxHeteroPlanEntries = 4

	// planGhosts is the number of once-seen keys remembered per DP: a
	// shape is admitted if it repeats within this many other new shapes.
	planGhosts = 64

	// planCacheSampleEvery is the sampling period of the -tags invariants
	// cross-check: every Nth cached plan is recomputed cold and compared.
	planCacheSampleEvery = 32
)

// planCacheStats are the cache counters. Every plan is exactly one hit or
// one miss.
type planCacheStats struct {
	Hits          int64 // plans served from an existing entry
	Misses        int64 // plans of a key with no entry: run cold (first sight) or building one (second)
	Invalidations int64 // stale records a plan on an existing entry read, and so recomputed
	Evictions     int64 // entries dropped by the FIFO bound
}

// planCache memoizes per-subtree DP tables across plans. One per Manager,
// guarded by its mu; not safe for concurrent use.
type planCache struct {
	homog      planShelf[homogKey, *homogTable]
	hetero     planShelf[string, *substrTable]
	stats      planCacheStats
	sampleTick int64
}

func newPlanCache() *planCache {
	return &planCache{
		homog:  newPlanShelf[homogKey, *homogTable](maxHomogPlanEntries, &homogTablePool),
		hetero: newPlanShelf[string, *substrTable](maxHeteroPlanEntries, &substrTablePool),
	}
}

// keyRing is a fixed-size FIFO of keys: push overwrites the oldest slot.
// The zero K marks an empty slot; no plan has the zero key.
type keyRing[K comparable] struct {
	slots []K
	next  int // the oldest slot, overwritten by the next push
}

// push stores k and returns the key it displaced (zero if none).
func (r *keyRing[K]) push(k K) K {
	old := r.slots[r.next]
	r.slots[r.next] = k
	r.next = (r.next + 1) % len(r.slots)
	return old
}

// take empties k's slot and reports whether it had one.
func (r *keyRing[K]) take(k K) bool {
	for i := range r.slots {
		if r.slots[i] == k {
			var none K
			r.slots[i] = none
			return true
		}
	}
	return false
}

// planner is one DP table bound to one request, as a plan runs it: settle
// is a dry run's whole plan, plan an admission's (settle, then build),
// table the dpTable both run on. homogTable and substrTable implement it.
type planner interface {
	settle(led *Ledger, scope *planScope) (topology.NodeID, int, error)
	plan(led *Ledger, scope *planScope) (Placement, int, error)
	table() *dpTable
}

// planShelf is one DP's share of the cache: the resident keys' tables, the
// ring that orders their eviction, the ghosts of keys seen once, and the
// pool every table comes from and goes back to.
type planShelf[K comparable, T planner] struct {
	entries  map[K]T
	resident keyRing[K]
	ghosts   keyRing[K]
	pool     *sync.Pool
}

func newPlanShelf[K comparable, T planner](size int, pool *sync.Pool) planShelf[K, T] {
	return planShelf[K, T]{
		entries:  make(map[K]T, size),
		resident: keyRing[K]{slots: make([]K, size)},
		ghosts:   keyRing[K]{slots: make([]K, planGhosts)},
		pool:     pool,
	}
}

// admit classifies one plan of key, counts it, and returns the table to
// plan on and whether the shelf keeps it. A resident key is a hit on its
// own table. A key seen for the first time only leaves a ghost: it plans
// cold on a pooled table the caller hands back. A key whose ghost is still
// in the ring is promoted to an entry; the oldest resident, if the shelf
// was full, is evicted and its table pooled first, so the new entry's
// pooled table reuses the slabs.
func (s *planShelf[K, T]) admit(key K, st *planCacheStats) (t T, hit, keep bool) {
	if t, ok := s.entries[key]; ok {
		st.Hits++
		return t, true, true
	}
	st.Misses++
	if !s.ghosts.take(key) {
		s.ghosts.push(key)
		return s.pool.Get().(T), false, false
	}
	var none K
	if oldest := s.resident.push(key); oldest != none {
		s.pool.Put(s.entries[oldest])
		delete(s.entries, oldest)
		st.Evictions++
	}
	t = s.pool.Get().(T)
	s.entries[key] = t
	return t, false, true
}

// cachedPlan is every plan through the cache, for either DP: it plans key
// on the table admit hands out, after bind has bound it to the request —
// reset, when the table is a fresh one from the pool; on a hit, only what
// the key does not pin down. A dry run leaves place unset: the table
// settles and nothing is built. A hit's recomputed records are
// invalidations (a commit or fault moved the versions); a new table's
// fill is already counted as a miss.
func cachedPlan[K comparable, T planner](c *planCache, s *planShelf[K, T], key K, led *Ledger, scope *planScope, place bool,
	bind func(t T, fresh bool)) (p Placement, err error) {
	t, hit, keep := s.admit(key, &c.stats)
	bind(t, !hit)
	recomputed := 0
	if place {
		p, recomputed, err = t.plan(led, scope)
	} else {
		_, recomputed, err = t.settle(led, scope)
	}
	if !keep {
		s.pool.Put(t)
		return p, err
	}
	if hit {
		c.stats.Invalidations += int64(recomputed)
	}
	if invariantsEnabled && c.shouldSample() {
		fp, ferr := coldPlan(s.pool, led, scope, func(t T) { bind(t, true); t.table().audit = true })
		checkCachedPlan(p, err, fp, ferr)
	}
	return p, err
}

// coldPlan plans on a pooled table that reset binds to the request: every
// record it reads is computed from led. It is the cold plan of both DPs.
func coldPlan[T planner](pool *sync.Pool, led *Ledger, scope *planScope, reset func(T)) (Placement, error) {
	t := pool.Get().(T)
	defer pool.Put(t)
	reset(t)
	p, _, err := t.plan(led, scope)
	return p, err
}

// homogKey identifies one homogeneous DP table shape. The demand is
// canonicalized (canonDemand) so equal effective demands share entries.
type homogKey struct {
	demand stats.Normal
	n      int
	policy Policy
}

// allocateHomog plans a homogeneous request against led using the cache.
// Bit-identical to core's AllocateHomog on the same ledger state. A
// non-nil scope confines planning to its subtree; entries are per-manager
// and a manager's scope is immutable, so cached records never mix scopes.
func (c *planCache) allocateHomog(led *Ledger, req Homogeneous, policy Policy, scope *planScope, place bool) (Placement, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, err
	}
	key := homogKey{demand: canonDemand(req.Demand), n: req.N, policy: policy}
	return cachedPlan(c, &c.homog, key, led, scope, place, func(t *homogTable, fresh bool) {
		if fresh {
			t.reset(led, scope, req, policy, true)
		}
	})
}

// substrCacheKey renders req's canonical demands in percentile order and
// the policy as an exact-value key (float bits, not formatted decimals).
func substrCacheKey(req Heterogeneous, order []int, policy Policy) string {
	var b strings.Builder
	b.Grow(2 + 34*len(order))
	b.WriteString(strconv.Itoa(int(policy)))
	for _, i := range order {
		d := canonDemand(req.Demands[i])
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Mu), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(d.Sigma), 16))
	}
	return b.String()
}

// allocateHeteroSubstring plans a heterogeneous request with the cached
// substring DP, keyed by the percentile-sorted canonical demand sequence.
// Bit-identical to AllocateHeteroSubstring; place as in cachedPlan. A hit
// rebinds the table to req: a permutation of the same demands shares it.
func (c *planCache) allocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy, scope *planScope, place bool) (Placement, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, err
	}
	order := orderByPercentile(req)
	return cachedPlan(c, &c.hetero, substrCacheKey(req, order, policy), led, scope, place, func(t *substrTable, fresh bool) {
		if fresh {
			t.reset(led, scope, req, order, policy)
		}
		t.req, t.order = req, order
	})
}

// --- the sampled equivalence check ---

// shouldSample gates the invariants-build cross-check to every
// planCacheSampleEvery-th cached plan. Counter-based, so sampling stays
// deterministic for a deterministic call sequence.
func (c *planCache) shouldSample() bool {
	c.sampleTick++
	return c.sampleTick%planCacheSampleEvery == 1
}

// checkCachedPlan panics unless the cached plan matches a cold DP run on
// the same ledger state — the bit-identical contract, spot-checked at
// runtime under -tags invariants. A dry run built no placement (an
// admitted one has entries): only the verdicts are compared.
func checkCachedPlan(cached Placement, cachedErr error, cold Placement, coldErr error) {
	if (cachedErr == nil) != (coldErr == nil) {
		panic(fmt.Sprintf("core: invariant violation: cached plan feasibility (err=%v) differs from cold DP (err=%v)", cachedErr, coldErr))
	}
	if cachedErr != nil || len(cached.Entries) == 0 {
		return
	}
	if !reflect.DeepEqual(cached.Entries, cold.Entries) {
		panic(fmt.Sprintf("core: invariant violation: cached plan differs from cold DP:\ncached: %v\ncold:   %v", &cached, &cold))
	}
}
