package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/topology"
)

// This file is the manager's durability seam. Every state-changing
// operation — allocation, release, fault injection, repair — is described
// by a Mutation and flows through one commit path (commitStagedLocked):
// the operation is planned without touching live state (the DP runs on
// the live ledger for admissions and on a scratch clone for repairs), the
// resulting Mutation is staged in the attached Journal, and only then
// does applyLocked execute it against the ledger; the caller waits for
// the record's durability after releasing the lock. Crash recovery
// replays journaled Mutations through the very same applyLocked, so a
// recovered manager is bit-identical to one that executed the operations
// live.

// ErrJournal reports that the attached journal rejected a mutation — the
// operation was NOT applied, so in-memory state still matches the log —
// or failed to make an applied one durable, which poisons the journal
// (see stageLocked for the two cases).
var ErrJournal = errors.New("core: journal write failed")

// ErrIdemConflict reports that an idempotency key was reused for a
// different operation than the one it originally committed.
var ErrIdemConflict = errors.New("core: idempotency key conflict")

// MutationOp enumerates the manager's state-changing operations.
type MutationOp uint8

const (
	// OpAlloc admits a job with a concrete placement.
	OpAlloc MutationOp = iota + 1
	// OpRelease frees an admitted job.
	OpRelease
	// OpFailMachine / OpRestoreMachine / OpFailLink / OpRestoreLink
	// mutate the fault overlay.
	OpFailMachine
	OpRestoreMachine
	OpFailLink
	OpRestoreLink
	// OpSetOffline administratively takes a machine in or out of service.
	OpSetOffline
	// OpRepair applies one repair outcome (noop/moved/degraded/failed).
	OpRepair
)

// String implements fmt.Stringer.
func (op MutationOp) String() string {
	switch op {
	case OpAlloc:
		return "alloc"
	case OpRelease:
		return "release"
	case OpFailMachine:
		return "fail_machine"
	case OpRestoreMachine:
		return "restore_machine"
	case OpFailLink:
		return "fail_link"
	case OpRestoreLink:
		return "restore_link"
	case OpSetOffline:
		return "set_offline"
	case OpRepair:
		return "repair"
	default:
		return fmt.Sprintf("MutationOp(%d)", int(op))
	}
}

// Mutation describes one state-changing commit. Which fields are
// meaningful depends on Op; see the field comments. It records decisions,
// not arithmetic: applyLocked derives the contributions. Placement is the
// planners', the jobs' and the exported state's own type, so a plan
// reaches the journal and the ledger unconverted — but cloned: a Mutation
// may be shared (a journal may keep it), so applyLocked hands no job or
// binding its memory — which lets replay reuse its decode storage.
type Mutation struct {
	Op  MutationOp
	Job JobID // alloc, release, repair

	// Alloc: the admitted request (exactly one of Homog/Hetero set) and
	// the committed placement.
	Homog     *Homogeneous
	Hetero    *Heterogeneous
	Placement *Placement

	Node    topology.NodeID // machine ops (fail/restore/offline)
	Link    topology.LinkID // link ops
	Offline bool            // OpSetOffline

	// Repair: the outcome, the new placement for moved and degraded
	// outcomes, and the honest post-repair risk factor.
	Outcome      RepairOutcome
	EffectiveEps float64

	// IdemKey, when non-empty, durably binds this mutation to an
	// idempotency key so retries replay instead of re-executing.
	IdemKey string
}

// Journal observes every state-changing commit. Both methods are invoked
// with the manager's write lock held, so the journal sees mutations in
// exactly the total order they are applied, and a checkpoint is always
// consistent with the log position. Commit is called BEFORE the mutation
// is applied; returning an error vetoes the operation.
type Journal interface {
	Commit(Mutation) error
	Checkpoint(*ManagerState) error
}

// AsyncJournal is an optional Journal extension for group commit.
// StageCommit appends the mutation to the journal's write queue —
// reserving its position in the log's total order — and returns a wait
// function that blocks until the record is durable. Staging happens under
// the manager's write lock, exactly like Commit, so the log order still
// equals the apply order; the wait runs after the lock is released, which
// lets concurrent commits share a single write+fsync. A staging error
// vetoes the mutation like a Commit error would.
type AsyncJournal interface {
	Journal
	StageCommit(Mutation) (wait func() error, err error)
}

// SetJournal attaches (or detaches, with nil) the journal observing the
// manager's commits. Attach only a journal whose log already reflects the
// manager's current state — typically the one returned by recovery, or a
// fresh journal on a fresh manager.
func (m *Manager) SetJournal(j Journal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journal = j
}

// Checkpoint hands the manager's full current state to the attached
// journal so it can snapshot and compact its log. It is a no-op without a
// journal.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return nil
	}
	return m.journal.Checkpoint(m.exportStateLocked())
}

// CallOption modifies one manager call (allocate, release, fault).
type CallOption interface{ applyCall(*callOpts) }

type callOpts struct {
	idemKey string
	jobID   JobID
}

type idemKeyOption string

func (o idemKeyOption) applyCall(c *callOpts) { c.idemKey = string(o) }

// WithIdemKey makes the call idempotent under the given key: the first
// commit durably binds the key to its outcome, and any later call with
// the same key replays that outcome instead of re-executing. An empty key
// is ignored.
func WithIdemKey(key string) CallOption { return idemKeyOption(key) }

type jobIDOption JobID

func (o jobIDOption) applyCall(c *callOpts) { c.jobID = JobID(o) }

// WithJobID admits the allocation under an externally assigned job ID
// instead of the manager's own sequence — the sharded router allocates
// IDs globally and pushes them down into pod-local managers so one job
// keeps one ID across shards. The ID must be positive and unused; the
// manager's own sequence max-merges past it, so mixing external and
// sequential assignment on the same manager stays collision-free. A zero
// ID is ignored.
func WithJobID(id JobID) CallOption { return jobIDOption(id) }

func evalCallOpts(opts []CallOption) callOpts {
	var co callOpts
	for _, o := range opts {
		o.applyCall(&co)
	}
	return co
}

// ResolveCallOptions returns the idempotency key a call-option list
// carries, without invoking a manager — the sharded router routes on it
// (replay, claim arbitration) before any pod manager sees the call.
func ResolveCallOptions(opts ...CallOption) string {
	return evalCallOpts(opts).idemKey
}

// noWait is the durability wait of a commit with nothing left to wait
// for: no journal, a synchronous one, or a replayed idempotency key.
func noWait() error { return nil }

// stageLocked offers the mutation to the journal (write-ahead: before it
// is applied) without waiting for durability: the returned wait function
// must be invoked after m.mu is released and reports the durability
// outcome. A journal that is not an AsyncJournal commits synchronously
// here and the wait is a no-op. A staging error vetoes the mutation
// (nothing was applied); a wait error means the mutation IS applied in
// memory but its record may not have reached disk — the journal is
// poisoned at that point, so the manager refuses all further mutations,
// and a restart recovers the state the log actually holds (exactly as if
// the process had crashed before the fsync).
func (m *Manager) stageLocked(mut Mutation) (func() error, error) {
	if m.journal == nil {
		return noWait, nil
	}
	aj, ok := m.journal.(AsyncJournal)
	if !ok {
		if err := m.journal.Commit(mut); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrJournal, err)
		}
		return noWait, nil
	}
	wait, err := aj.StageCommit(mut)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return func() error {
		if werr := wait(); werr != nil {
			return fmt.Errorf("%w: %w", ErrJournal, werr)
		}
		return nil
	}, nil
}

// commitStagedLocked is the commit every mutator shares: stage the
// journal record, then apply. Every live mutation and every replayed one
// funnels through applyLocked, so the journal's total order is exactly
// the apply order. The caller releases m.mu and then invokes the returned
// wait, so concurrent commits share one write+fsync and no lock is held
// across it.
func (m *Manager) commitStagedLocked(mut Mutation) (func() error, error) {
	wait, err := m.stageLocked(mut)
	if err != nil {
		return nil, err
	}
	if err := m.applyLocked(mut); err != nil {
		return nil, err
	}
	return wait, nil
}

// applyLocked executes one mutation against the ledger and bookkeeping,
// deriving the contributions of any placement it commits. Live callers
// have already validated their mutation (the DP produced it); replay
// callers validate with validateMutationLocked first.
func (m *Manager) applyLocked(mut Mutation) error {
	switch mut.Op {
	case OpAlloc:
		a := &Allocation{ID: mut.Job, Placement: mut.Placement.Clone()}
		if mut.Homog != nil {
			h := *mut.Homog
			a.homog = &h
		}
		if mut.Hetero != nil {
			ds := make([]stats.Normal, len(mut.Hetero.Demands))
			copy(ds, mut.Hetero.Demands)
			a.hetero = &Heterogeneous{Demands: ds}
		}
		a.contribs = m.derive.contribs(m.led.Topology(), a.homog, a.hetero, &a.Placement)
		commit(m.led, &a.Placement, a.contribs)
		m.jobs[a.ID] = a
		if a.ID > m.nextID {
			m.nextID = a.ID
		}
		m.version++
		m.assertCommitLocked(&mut, a.contribs, nil)

	case OpRelease:
		a, ok := m.jobs[mut.Job]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownJob, mut.Job)
		}
		rollback(m.led, &a.Placement, a.contribs)
		delete(m.jobs, mut.Job)
		delete(m.degraded, mut.Job)
		m.version++
		m.assertCommitLocked(&mut, a.contribs, nil)

	case OpFailMachine:
		if m.led.Faults().FailMachine(mut.Node) {
			m.counters.MachineFailures++
			m.version++
		}
	case OpRestoreMachine:
		if m.led.Faults().RestoreMachine(mut.Node) {
			m.counters.MachineRestores++
			m.version++
		}
	case OpFailLink:
		if m.led.Faults().FailLink(mut.Link) {
			m.counters.LinkFailures++
			m.version++
		}
	case OpRestoreLink:
		if m.led.Faults().RestoreLink(mut.Link) {
			m.counters.LinkRestores++
			m.version++
		}
	case OpSetOffline:
		m.led.SetOffline(mut.Node, mut.Offline)
		m.version++

	case OpRepair:
		a, ok := m.jobs[mut.Job]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownJob, mut.Job)
		}
		switch mut.Outcome {
		case RepairNoop:
			m.counters.NoopRepairs++
		case RepairMoved, RepairDegraded:
			old := a.contribs
			rollback(m.led, &a.Placement, old)
			a.Placement = mut.Placement.Clone()
			a.contribs = m.derive.contribs(m.led.Topology(), a.homog, a.hetero, &a.Placement)
			commit(m.led, &a.Placement, a.contribs)
			if mut.Outcome == RepairDegraded {
				m.degraded[a.ID] = mut.EffectiveEps
				m.counters.DegradedRepairs++
			} else {
				delete(m.degraded, a.ID)
				m.counters.MovedRepairs++
			}
			m.version += 2
			m.assertCommitLocked(&mut, a.contribs, old)
		case RepairFailed:
			rollback(m.led, &a.Placement, a.contribs)
			delete(m.jobs, a.ID)
			delete(m.degraded, a.ID)
			m.counters.FailedRepairs++
			m.version += 2
		default:
			return fmt.Errorf("core: unknown repair outcome %d", int(mut.Outcome))
		}

	default:
		return fmt.Errorf("core: unknown mutation op %d", int(mut.Op))
	}

	m.idem.Bind(mut)
	return nil
}

// Replay validates and applies one journaled mutation without journaling
// it again — the recovery path. Mutations must be replayed in their
// original log order onto a manager whose state matches the log position.
// Replay keeps no reference to mut's memory (jobs and bindings get copies),
// so the caller may decode the next record into it once Replay returns.
func (m *Manager) Replay(mut Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.validateMutationLocked(mut); err != nil {
		return err
	}
	return m.applyLocked(mut)
}

// validateMutationLocked rejects mutations that would corrupt or panic
// the ledger. Planned mutations never are such; this guards the replay
// path against a journal that passed its checksums but is semantically
// inconsistent with the manager's state, and the fault ops and SetOffline
// against a caller's target that is no machine or link (ErrBadRequest).
func (m *Manager) validateMutationLocked(mut Mutation) error {
	topo := m.led.Topology()
	validMachine := func(id topology.NodeID) error {
		if id < 0 || int(id) >= topo.Len() || !topo.Node(id).IsMachine() {
			return fmt.Errorf("%w: node %d is not a machine", ErrBadRequest, id)
		}
		return nil
	}
	validLink := func(id topology.LinkID) error {
		if id < 0 || int(id) >= topo.Len() || topo.Node(topology.NodeID(id)).Parent == topology.None {
			return fmt.Errorf("%w: node %d has no uplink", ErrBadRequest, id)
		}
		return nil
	}
	// validPlacement checks slot feasibility exactly as commit's UseSlots
	// will see it: fault-aware free slots, with the job's old placement
	// (rolled back first) credited back per machine, and that the VMs are
	// named as the derivation reads them. The scratch it uses is the
	// manager's, so validating a homogeneous record allocates nothing.
	validPlacement := func(p *Placement, old []PlacementEntry, homog *Homogeneous, hetero *Heterogeneous) error {
		if p == nil {
			return errors.New("core: mutation has no placement")
		}
		if len(m.placedIn) < topo.Len() {
			m.placedIn, m.freed = make([]int64, topo.Len()), make([]int, topo.Len())
		}
		m.checks++
		for _, e := range old {
			m.freed[e.Machine] += e.Count
		}
		defer func() {
			for _, e := range old {
				m.freed[e.Machine] = 0
			}
		}()
		for _, e := range p.Entries {
			if err := validMachine(e.Machine); err != nil {
				return err
			}
			if e.Count <= 0 || m.placedIn[e.Machine] == m.checks {
				return fmt.Errorf("core: bad placement entry on machine %d", e.Machine)
			}
			if e.VMs != nil && len(e.VMs) != e.Count {
				return fmt.Errorf("core: machine %d lists %d VMs for count %d", e.Machine, len(e.VMs), e.Count)
			}
			m.placedIn[e.Machine] = m.checks
			free := 0
			if m.led.Faults().Alive(e.Machine) {
				free = topo.Node(e.Machine).Slots - m.led.used[e.Machine] + m.freed[e.Machine]
			}
			if e.Count > free {
				return fmt.Errorf("core: machine %d needs %d slots, has %d free", e.Machine, e.Count, free)
			}
		}
		return placesRequest(p, homog, hetero)
	}

	switch mut.Op {
	case OpAlloc:
		if mut.Job <= 0 {
			return fmt.Errorf("core: bad job id %d", mut.Job)
		}
		if _, ok := m.jobs[mut.Job]; ok {
			return fmt.Errorf("core: duplicate job id %d", mut.Job)
		}
		if (mut.Homog == nil) == (mut.Hetero == nil) {
			return errors.New("core: alloc must carry exactly one request kind")
		}
		if mut.Homog != nil {
			if err := mut.Homog.Validate(); err != nil {
				return err
			}
		} else if err := mut.Hetero.Validate(); err != nil {
			return err
		}
		return validPlacement(mut.Placement, nil, mut.Homog, mut.Hetero)

	case OpRelease:
		if _, ok := m.jobs[mut.Job]; !ok {
			return fmt.Errorf("%w: %d", ErrUnknownJob, mut.Job)
		}
		return nil

	case OpFailMachine, OpRestoreMachine, OpSetOffline:
		return validMachine(mut.Node)
	case OpFailLink, OpRestoreLink:
		return validLink(mut.Link)

	case OpRepair:
		a, ok := m.jobs[mut.Job]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownJob, mut.Job)
		}
		switch mut.Outcome {
		case RepairNoop, RepairFailed:
			return nil
		case RepairMoved, RepairDegraded:
			if math.IsNaN(mut.EffectiveEps) || mut.EffectiveEps < 0 || mut.EffectiveEps > 1 {
				return fmt.Errorf("core: bad effective eps %v", mut.EffectiveEps)
			}
			return validPlacement(mut.Placement, a.Placement.Entries, a.homog, a.hetero)
		default:
			return fmt.Errorf("core: unknown repair outcome %d", int(mut.Outcome))
		}

	default:
		return fmt.Errorf("core: unknown mutation op %d", int(mut.Op))
	}
}
