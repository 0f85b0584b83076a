package core

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
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
// A cached plan and a cold one are the same code on the same table type
// (homogTable, substrTable): the cold plan starts from a table with no
// record filled, the cached one from whatever is still current, which
// after a machine-level stop is only part of the table. The
// equivalence suite in plancache_test.go and a sampled -tags invariants
// cross-check hold the reuse test to bit-identical placements.
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
	homog      planShelf[homogKey, homogTable]
	hetero     planShelf[string, substrTable]
	stats      planCacheStats
	sampleTick int64
}

func newPlanCache() *planCache {
	return &planCache{
		homog:  newPlanShelf[homogKey, homogTable](maxHomogPlanEntries),
		hetero: newPlanShelf[string, substrTable](maxHeteroPlanEntries),
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

// planEntry is one resident key's table, nil until the entry's first plan.
type planEntry[T any] struct {
	table *T
}

// retire pools an evicted entry's table, so the entry that displaced it —
// or any cold plan — reuses the slabs.
func (e *planEntry[T]) retire(pool *sync.Pool) {
	if e != nil && e.table != nil {
		pool.Put(e.table)
	}
}

// planShelf is one DP's share of the cache: the resident entries, the
// ring that orders their eviction, and the ghosts of keys seen once.
type planShelf[K comparable, T any] struct {
	entries  map[K]*planEntry[T]
	resident keyRing[K]
	ghosts   keyRing[K]
}

func newPlanShelf[K comparable, T any](size int) planShelf[K, T] {
	return planShelf[K, T]{
		entries:  make(map[K]*planEntry[T], size),
		resident: keyRing[K]{slots: make([]K, size)},
		ghosts:   keyRing[K]{slots: make([]K, planGhosts)},
	}
}

// admit classifies one plan of key and counts it. A resident key is a hit
// on its entry. A key seen for the first time only leaves a ghost and gets
// no entry: the caller plans cold. A key whose ghost is still in the ring
// is promoted to a new entry, and the oldest resident, if the shelf was
// full, comes back as the victim for the caller to retire.
func (s *planShelf[K, T]) admit(key K, st *planCacheStats) (e *planEntry[T], hit bool, victim *planEntry[T]) {
	if e = s.entries[key]; e != nil {
		st.Hits++
		return e, true, nil
	}
	st.Misses++
	if !s.ghosts.take(key) {
		s.ghosts.push(key)
		return nil, false, nil
	}
	var none K
	if oldest := s.resident.push(key); oldest != none {
		victim = s.entries[oldest]
		delete(s.entries, oldest)
		st.Evictions++
	}
	e = new(planEntry[T])
	s.entries[key] = e
	return e, false, victim
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
// A dry run leaves place unset: the table settles and nothing is built.
func (c *planCache) allocateHomog(led *Ledger, req Homogeneous, policy Policy, scope *planScope, place bool) (p Placement, contribs []Contribution, err error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	key := homogKey{demand: canonDemand(req.Demand), n: req.N, policy: policy}
	e, hit, victim := c.homog.admit(key, &c.stats)
	victim.retire(&homogTablePool)
	var t *homogTable
	if e != nil {
		t = e.table
	}
	if t == nil { // first sight, or an entry's first plan
		t = homogTablePool.Get().(*homogTable)
		t.reset(led.Topology(), scope, req, policy)
	}
	recomputed := 0
	if place {
		p, contribs, recomputed, err = t.plan(led, scope)
	} else {
		_, recomputed, err = t.settle(led, scope)
	}
	if e == nil {
		homogTablePool.Put(t)
		return p, contribs, err
	}
	e.table = t
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHomogScoped(led, req, policy, scope)
		checkCachedPlan("homog", p, err, fp, ferr)
	}
	return p, contribs, err
}

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

// allocateHeteroSubstring plans a heterogeneous request with the cached
// substring DP, keyed by the percentile-sorted canonical demand sequence.
// Bit-identical to AllocateHeteroSubstring; place as in allocateHomog.
func (c *planCache) allocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy, scope *planScope, place bool) (p Placement, contribs []Contribution, err error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	order, sorted := orderByPercentile(req)
	for i := range sorted {
		sorted[i] = canonDemand(sorted[i])
	}
	key := substrCacheKey(sorted, policy)
	e, hit, victim := c.hetero.admit(key, &c.stats)
	victim.retire(&substrTablePool)
	var t *substrTable
	if e != nil {
		t = e.table
	}
	if t == nil {
		t = substrTablePool.Get().(*substrTable)
		t.reset(led.Topology(), scope, sorted, policy)
	}
	recomputed := 0
	if place {
		p, contribs, recomputed, err = t.plan(led, scope, req, order)
	} else {
		_, recomputed, err = t.settle(led, scope)
	}
	if e == nil {
		substrTablePool.Put(t)
		return p, contribs, err
	}
	e.table = t
	c.notePlan(hit, recomputed)
	if invariantsEnabled && c.shouldSample() {
		fp, _, ferr := allocateHeteroSubstringScoped(led, req, policy, scope)
		checkCachedPlan("hetero", p, err, fp, ferr)
	}
	return p, contribs, err
}

// --- counters and the sampled equivalence check ---

// notePlan folds one plan's cache effects into the counters: recomputes
// on a pre-existing entry are invalidations (a commit or fault moved the
// versions); a new entry's full fill is already accounted as a miss.
func (c *planCache) notePlan(hit bool, recomputed int) {
	if hit {
		c.stats.Invalidations += int64(recomputed)
	}
}

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
func checkCachedPlan(kind string, cached Placement, cachedErr error, cold Placement, coldErr error) {
	if (cachedErr == nil) != (coldErr == nil) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan feasibility (err=%v) differs from cold DP (err=%v)", kind, cachedErr, coldErr))
	}
	if cachedErr != nil || len(cached.Entries) == 0 {
		return
	}
	if !reflect.DeepEqual(cached.Entries, cold.Entries) {
		panic(fmt.Sprintf("core: invariant violation: cached %s plan differs from cold DP:\ncached: %v\ncold:   %v", kind, &cached, &cold))
	}
}
