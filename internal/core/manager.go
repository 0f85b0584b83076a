package core

import (
	"errors"
	"fmt"
	"sync"

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

	contribs []Contribution // derived (deriver.contribs), never stored
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
// Every mutator has one shape: take the lock, decide on the live ledger
// (admissions plan there, one request at a time — see admission.go),
// stage the journal record, apply, unlock, and only then wait for
// durability, so concurrent callers share a group commit. Read-only work
// (CanAllocate* dry runs, MaxOccupancy*, FreeSlots* and LinkLoads
// metrics, Headroom probes) runs in view, on the same live ledger under
// the same lock: a dry run is the decision an admission would make, one
// at a time like it, and a read sees every mutation applied before it.
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

	// derive derives every committed placement's contributions, its memo
	// shared by live commits, replay and restore. Guarded by mu.
	derive deriver

	// adm counts admissions and times their plans (guarded by mu; its
	// plan-cache fields stay zero, AdmissionStats fills them in). See
	// admission.go.
	adm AdmissionStats

	// plans memoizes per-subtree DP tables across admissions and dry runs,
	// keyed by (demand params, N, policy) and validated per vertex against
	// the ledger's subtree versions (see plancache.go). Guarded by mu.
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
func (m *Manager) planHetero(led *Ledger, req Heterogeneous, mode planMode) (Placement, error) {
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

// view runs fn on the live ledger under m.mu, so it sees every mutation
// applied before the call; fn must neither mutate the ledger (mutating
// probes Clone it; a write here would bypass the journal) nor keep it.
func view[T any](m *Manager, fn func(*Ledger) T) T {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fn(m.led)
}

// CanAllocateHomog reports whether a homogeneous request would currently
// be admitted, without committing anything — a capacity-planning dry run.
// It plans under the manager lock, like the admission it predicts.
func (m *Manager) CanAllocateHomog(req Homogeneous) bool {
	return view(m, func(led *Ledger) bool {
		_, err := m.plans.allocateHomog(led, req, m.policy, m.scope, false)
		return err == nil
	})
}

// CanAllocateHetero reports whether a heterogeneous request would currently
// be admitted, without committing anything. It plans under the manager
// lock, like the admission it predicts.
func (m *Manager) CanAllocateHetero(req Heterogeneous) bool {
	return view(m, func(led *Ledger) bool {
		_, err := m.planHetero(led, req, planDry)
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

// Running returns the number of admitted, unreleased jobs.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// FreeSlots returns the number of unoccupied VM slots on the machines the
// manager plans over: every machine, or a WithPlanSubtree manager's
// subtree — a pod of a sharded control plane answers for its own
// machines. Like every metric below it reads the live ledger in view.
func (m *Manager) FreeSlots() int {
	machines := scopeAtLevel(m.led.Topology(), m.scope, 0)
	return view(m, func(led *Ledger) (total int) {
		for _, mc := range machines {
			total += led.FreeSlots(mc)
		}
		return total
	})
}

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
	// One table for the whole probe: each commit below restamps only the
	// paths it touched, and the next plan recomputes only those of them
	// its selection reads. Binding it reads only the topology and c, so a
	// request the empty-link refusal turns away clones nothing.
	t := homogTablePool.Get().(*homogTable)
	defer homogTablePool.Put(t)
	if t.reset(m.led, m.scope, req, m.policy, true); t.refused {
		return 0, nil
	}
	scratch := view(m, (*Ledger).Clone)
	if limit <= 0 {
		limit = scratch.TotalFreeSlots()/req.N + 1
	}
	var d deriver
	count := 0
	for count < limit {
		p, _, err := t.plan(scratch, m.scope)
		if err != nil {
			if errors.Is(err, ErrNoCapacity) {
				break
			}
			return count, err
		}
		commit(scratch, &p, d.contribs(scratch.Topology(), &req, nil, &p))
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
