package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// HeteroAlgorithm selects the allocator Manager uses for heterogeneous
// requests.
type HeteroAlgorithm int

const (
	// HeteroSubstring is the paper's polynomial substring heuristic.
	HeteroSubstring HeteroAlgorithm = iota + 1
	// HeteroExact is the exponential exact DP (small requests only).
	HeteroExact
	// HeteroFirstFit is the first-fit baseline.
	HeteroFirstFit
)

// ErrUnknownJob is returned by Release for job IDs the manager is not
// tracking.
var ErrUnknownJob = errors.New("core: unknown job")

// JobID identifies an admitted request within a Manager.
type JobID int64

// Allocation is the manager's record of one admitted request.
type Allocation struct {
	ID        JobID
	Placement Placement

	contribs []Contribution
	// The admitted request, kept so failure repair can re-run the
	// allocation DP for the same demand profile. Exactly one is set.
	homog  *Homogeneous
	hetero *Heterogeneous
}

// Manager is the paper's network manager: it admits tenant requests by
// running the VM allocation algorithms against the ledger, commits the
// resulting reservations, and releases them when jobs finish. It is safe
// for concurrent use.
//
// Every mutator has one shape: take the write lock, decide on the live
// ledger (admissions plan there, one request at a time — see
// admission.go), stage the journal record, apply, unlock, and only then
// wait for durability, so concurrent callers share a group commit.
// Read-only work (CanAllocate* dry runs, MaxOccupancy*, FreeSlots* and
// LinkLoads metrics, Headroom probes) runs in view, on one of two snapshot
// ledgers instead: the lock is held only while the first reader after a
// mutation copies the paths written since (Ledger.refreshFrom), never for
// the dynamic program on top of it. Snapshot reads are point-in-time
// consistent; under concurrent mutation they may lag the live ledger by
// the mutations that land after the view was taken.
type Manager struct {
	mu      sync.Mutex
	led     *Ledger
	policy  Policy
	hetero  HeteroAlgorithm
	jobs    map[JobID]*Allocation
	nextID  JobID
	version uint64 // bumped on every ledger mutation (guarded by mu)

	// Durability: the optional write-ahead journal observing every
	// mutation, and the idempotency-key table (guarded by mu). Both are
	// rebuilt by crash recovery (see internal/wal).
	journal Journal
	idem    IdemTable

	// Failure/repair state (guarded by mu): jobs running with a weakened
	// effective eps after a degraded repair, the journaled fault/repair
	// counters, and the repair timings, which are telemetry and not state.
	// FailureStats exposes all three.
	degraded      map[JobID]float64
	counters      CounterState
	repairLatency metrics.LatencySummary

	// validateMutationLocked's scratch (guarded by mu), per node: the last
	// placement check that listed it, and the slots freed there, 0 between checks.
	placedIn []int64
	freed    []int
	checks   int64

	// adm counts admissions and times their plans (guarded by mu; its
	// plan-cache fields stay zero, AdmissionStats fills them in). See
	// admission.go.
	adm AdmissionStats

	// The read snapshots (guarded by snapMu; see view): new readers pin cur,
	// the next refresh writes spare. snapMu only serializes readers'
	// refreshes — a burst queues here, not on mu — never the DP on top.
	snapMu      sync.Mutex
	cur, spare  *snapBuf
	refreshTick uint64 // in-place refreshes, sampled by assertRefreshedLocked

	// plans memoizes per-subtree DP tables across admissions, keyed by
	// (demand params, N, policy) and validated per vertex against the
	// ledger's subtree versions (see plancache.go). Immutable pointer,
	// internally synchronized.
	plans *planCache

	// scope, when non-nil, confines every planning DP to one subtree
	// (WithPlanSubtree) — the pod-local planning seam the sharded control
	// plane builds on. Immutable after construction.
	scope *planScope
}

// ManagerOption configures a Manager.
type ManagerOption interface {
	apply(*Manager)
}

type policyOption Policy

func (o policyOption) apply(m *Manager) { m.policy = Policy(o) }

// WithPolicy selects the placement tie-breaking policy (default
// MinMaxOccupancy, the paper's SVC algorithm).
func WithPolicy(p Policy) ManagerOption { return policyOption(p) }

type heteroOption HeteroAlgorithm

func (o heteroOption) apply(m *Manager) { m.hetero = HeteroAlgorithm(o) }

// WithHeteroAlgorithm selects the heterogeneous allocator (default
// HeteroSubstring).
func WithHeteroAlgorithm(a HeteroAlgorithm) ManagerOption { return heteroOption(a) }

// NewManager returns a manager over an empty datacenter with bandwidth
// outage risk factor eps.
func NewManager(topo *topology.Topology, eps float64, opts ...ManagerOption) (*Manager, error) {
	led, err := NewLedger(topo, eps)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		led:      led,
		policy:   MinMaxOccupancy,
		hetero:   HeteroSubstring,
		jobs:     make(map[JobID]*Allocation),
		degraded: make(map[JobID]float64),
		idem:     make(IdemTable),
		plans:    newPlanCache(),
	}
	for _, o := range opts {
		o.apply(m)
	}
	return m, nil
}

// AllocateHomog admits a homogeneous request (stochastic SVC or
// deterministic VC), committing its reservations. It returns
// ErrNoCapacity-wrapped errors when the request must be rejected. With
// WithIdemKey, a key already committed replays the original placement
// instead of allocating again.
func (m *Manager) AllocateHomog(req Homogeneous, opts ...CallOption) (*Allocation, error) {
	co := evalCallOpts(opts)
	return m.allocate(Mutation{Op: OpAlloc, Job: co.jobID, Homog: &req, IdemKey: co.idemKey})
}

// AllocateHetero admits a heterogeneous SVC request using the configured
// algorithm, committing its reservations.
func (m *Manager) AllocateHetero(req Heterogeneous, opts ...CallOption) (*Allocation, error) {
	co := evalCallOpts(opts)
	return m.allocate(Mutation{Op: OpAlloc, Job: co.jobID, Hetero: &req, IdemKey: co.idemKey})
}

// planMode says what planHetero plans for.
type planMode int

const (
	planAdmit   planMode = iota // an admission: through the plan cache
	planScratch                 // a repair's scratch ledger: cold, past the cache (see planRepairLocked)
	planDry                     // a dry run: through the cache, no placement built (see homogTable.settle)
)

// planHetero runs the configured heterogeneous allocator against a ledger
// without committing. Scoped managers always use the substring DP (the
// only hetero allocator with a scoped variant; see WithPlanSubtree).
func (m *Manager) planHetero(led *Ledger, req Heterogeneous, mode planMode) (Placement, []Contribution, error) {
	if m.scope == nil {
		switch m.hetero {
		case HeteroExact:
			return AllocateHeteroExact(led, req)
		case HeteroFirstFit:
			return AllocateFirstFit(led, req)
		}
	}
	if mode == planScratch {
		return allocateHeteroSubstringScoped(led, req, m.policy, m.scope)
	}
	return m.plans.allocateHeteroSubstring(led, req, m.policy, m.scope, mode != planDry)
}

// snapBuf is one of the manager's two read snapshots: a ledger equal to
// the live one as of manager version ver, and the views reading it now.
type snapBuf struct {
	led  *Ledger
	ver  uint64
	pins atomic.Int32 // raised under snapMu, lowered without it
}

// view runs fn on a read-only ledger reflecting every mutation applied
// before the call; fn must neither mutate it (mutating probes Clone it)
// nor keep it. Readers share the current snapshot until a mutation; the
// first reader after one refreshes the spare in place and makes it
// current, so writers never pay for a reader. A spare some slow reader
// still holds is left to that reader and replaced by a whole Clone, as
// are the two a manager starts without.
func view[T any](m *Manager, fn func(*Ledger) T) T {
	m.snapMu.Lock()
	m.mu.Lock()
	if m.cur == nil || m.cur.ver != m.version {
		if sp := m.spare; sp != nil && sp.pins.Load() == 0 {
			sp.led.refreshFrom(m.led)
			m.assertRefreshedLocked(sp.led)
			m.cur, m.spare = sp, m.cur
		} else {
			m.cur, m.spare = &snapBuf{led: m.led.Clone()}, m.cur
		}
		m.cur.ver = m.version
	}
	m.mu.Unlock()
	s := m.cur
	s.pins.Add(1)
	m.snapMu.Unlock()
	defer s.pins.Add(-1)
	return fn(s.led)
}

// CanAllocateHomog reports whether a homogeneous request would currently
// be admitted, without committing anything — a capacity-planning dry run.
// It runs on a ledger snapshot, concurrently with admissions.
func (m *Manager) CanAllocateHomog(req Homogeneous) bool {
	return view(m, func(led *Ledger) bool {
		_, _, err := m.plans.allocateHomog(led, req, m.policy, m.scope, false)
		return err == nil
	})
}

// CanAllocateHetero reports whether a heterogeneous request would currently
// be admitted, without committing anything. It runs on a ledger snapshot,
// concurrently with admissions.
func (m *Manager) CanAllocateHetero(req Heterogeneous) bool {
	return view(m, func(led *Ledger) bool {
		_, _, err := m.planHetero(led, req, planDry)
		return err == nil
	})
}

// Release frees the slots and reservations of an admitted job. With
// WithIdemKey, a key already committed for this release replays success
// instead of failing with ErrUnknownJob.
func (m *Manager) Release(id JobID, opts ...CallOption) error {
	co := evalCallOpts(opts)
	m.mu.Lock()
	if _, bound, err := m.idem.Replay(co.idemKey, OpRelease, id); bound {
		m.mu.Unlock()
		return err
	}
	if _, ok := m.jobs[id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	wait, err := m.commitStagedLocked(Mutation{Op: OpRelease, Job: id, IdemKey: co.idemKey})
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return wait()
}

// HasJob reports whether a job is currently admitted. The sharded
// router's crash recovery uses it to resolve in-doubt cross-pod
// admissions: an intent with no matching job on some pod must abort.
func (m *Manager) HasJob(id JobID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.jobs[id]
	return ok
}

// Running returns the number of admitted, unreleased jobs.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// FreeSlots returns the number of unoccupied VM slots. Like every metric
// below it reads a ledger snapshot, so scrapes never stall admissions.
func (m *Manager) FreeSlots() int { return view(m, (*Ledger).TotalFreeSlots) }

// Version returns the count of applied mutations since construction —
// the committed-version clock replication lag is measured in.
func (m *Manager) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// SetOffline takes a machine out of (or back into) service. Offline
// machines receive no new VMs; running jobs are unaffected until their
// owner releases or fails them. It fails when the node is not a machine
// (ErrBadRequest) or the attached journal rejects the mutation.
func (m *Manager) SetOffline(machine topology.NodeID, offline bool) error {
	_, err := m.fault(Mutation{Op: OpSetOffline, Node: machine, Offline: offline}, nil, false)
	return err
}

// MaxOccupancy returns the maximum bandwidth occupancy ratio over all
// links, the paper's Fig. 9 statistic.
func (m *Manager) MaxOccupancy() float64 { return view(m, (*Ledger).MaxOccupancy) }

// Headroom reports how many more copies of the given homogeneous request
// the datacenter could admit right now, exploring on a cloned ledger so
// live state is untouched. The count is capped at limit (a limit of 0
// means no cap beyond the datacenter's slot count).
func (m *Manager) Headroom(req Homogeneous, limit int) (int, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	scratch := view(m, (*Ledger).Clone)
	if limit <= 0 {
		limit = scratch.TotalFreeSlots()/req.N + 1
	}
	// One table for the whole probe: each commit below restamps only the
	// paths it touched, so the next plan recomputes just those records.
	t := homogTablePool.Get().(*homogTable)
	defer homogTablePool.Put(t)
	t.reset(scratch.Topology(), m.scope, req, m.policy)
	count := 0
	for count < limit {
		p, contribs, _, err := t.plan(scratch, m.scope)
		if err != nil {
			if errors.Is(err, ErrNoCapacity) {
				break
			}
			return count, err
		}
		commit(scratch, &p, contribs)
		count++
	}
	return count, nil
}

// MaxOccupancyByLevel returns the maximum occupancy per link level
// (index 0 = host links).
func (m *Manager) MaxOccupancyByLevel() []float64 { return view(m, (*Ledger).MaxOccupancyByLevel) }

// Epsilon returns the manager's risk factor.
func (m *Manager) Epsilon() float64 { return m.led.Epsilon() }

// Topology returns the managed topology.
func (m *Manager) Topology() *topology.Topology { return m.led.Topology() }

// Ledger exposes the underlying ledger for read-only inspection by
// in-process tooling (the simulator and tests). Callers must not mutate it
// while the manager is in use.
func (m *Manager) Ledger() *Ledger { return m.led }

// FreeSlotsSubtree returns the number of unoccupied VM slots on machines
// inside root's subtree — the per-pod capacity view a sharded control
// plane reports, where each pod controller's ledger is authoritative only
// for its own subtree.
func (m *Manager) FreeSlotsSubtree(root topology.NodeID) int {
	machines := m.led.Topology().SubtreeMachines(nil, root)
	return view(m, func(led *Ledger) (total int) {
		for _, mc := range machines {
			total += led.FreeSlots(mc)
		}
		return total
	})
}

// LinkLoad is the point-in-time load of one physical link, for status
// surfaces (the /v1/links endpoint and per-shard status sections).
type LinkLoad struct {
	Link       topology.LinkID
	Capacity   float64
	Occupancy  float64 // paper Eq. 6 ratio O_L
	DetLoad    float64 // deterministic reservations D_L
	Stochastic int     // stochastic demands sharing the link
}

// LinkLoads returns the load of every link, in link order, in a fresh
// slice the caller owns and may reorder (httpapi's /v1/links does).
func (m *Manager) LinkLoads() []LinkLoad {
	return view(m, func(led *Ledger) []LinkLoad {
		topo := led.Topology()
		out := make([]LinkLoad, 0, len(topo.Links()))
		for _, l := range topo.Links() {
			out = append(out, LinkLoad{
				Link:       l,
				Capacity:   topo.LinkCap(l),
				Occupancy:  led.Occupancy(l),
				DetLoad:    led.DetReserved(l),
				Stochastic: led.StochasticCount(l),
			})
		}
		return out
	})
}
