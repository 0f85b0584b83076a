package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// The admission pipeline: plan → validate → commit. The min-max DP — the
// admission hot path, O(tree) — runs on a lock-free ledger snapshot; the
// write lock is then taken only to revalidate the links and machines the
// chosen placement actually touches (the Eq. 4 recheck, O(links in the
// placement)) and to commit. A plan invalidated by concurrent commits is
// retried against a fresh snapshot a bounded number of times; the attempt
// after those plans on the live ledger with the lock held, so admission
// never livelocks and every rejection is issued against a ledger state no
// older than the call.

// maxPlanRetries bounds how many planning rounds one admission may run
// on snapshots before it plans under the write lock.
const maxPlanRetries = 3

// AdmissionStats counts how admissions traveled through the pipeline.
// Fast-path commits validated against the very version they planned on;
// revalidated commits passed the per-link Eq. 4 recheck after concurrent
// commits moved the ledger; conflicts are plans the recheck (or a
// capacity rejection against a stale version) invalidated, each followed
// by a retry; locked counts plans run under the write lock, and
// fallbacks those of them that followed exhausted retries.
type AdmissionStats struct {
	FastPath    int64                  `json:"fastPath"`
	Revalidated int64                  `json:"revalidated"`
	Conflicts   int64                  `json:"conflicts"`
	Retries     int64                  `json:"retries"`
	Fallbacks   int64                  `json:"fallbacks"`
	Locked      int64                  `json:"locked"`
	Plan        metrics.LatencySummary `json:"plan"`

	// Plan-cache counters (see plancache.go): hits and misses count
	// plans that found / had to build a DP table entry; invalidations
	// count stale vertex records recomputed on existing entries (the
	// commit-path touched set plus fault-epoch drops); evictions count
	// entries dropped by the FIFO bound.
	PlanCacheHits          int64 `json:"planCacheHits"`
	PlanCacheMisses        int64 `json:"planCacheMisses"`
	PlanCacheInvalidations int64 `json:"planCacheInvalidations"`
	PlanCacheEvictions     int64 `json:"planCacheEvictions"`
}

// AdmissionStats returns a snapshot of the admission pipeline counters.
func (m *Manager) AdmissionStats() AdmissionStats {
	m.mu.Lock()
	out := m.adm
	m.mu.Unlock()
	pc := m.plans.snapshot()
	out.PlanCacheHits = pc.Hits
	out.PlanCacheMisses = pc.Misses
	out.PlanCacheInvalidations = pc.Invalidations
	out.PlanCacheEvictions = pc.Evictions
	return out
}

// planFunc runs one allocation algorithm against a ledger — live or
// snapshot — returning the placement and contributions uncommitted.
type planFunc func(led *Ledger) (Placement, []linkDemand, error)

// allocate is the admission driver behind AllocateHomog and
// AllocateHetero. mut carries the request (Homog or Hetero set, IdemKey
// evaluated); the placement and contributions are filled in from the
// winning plan.
func (m *Manager) allocate(co callOpts, plan planFunc, mut Mutation, wantVMs int) (*Allocation, error) {
	optimistic := maxPlanRetries
	if m.lockedAdmission {
		optimistic = 0
	}
	if optimistic > 0 && co.idemKey != "" {
		// Resolve a replayed key before paying for a plan. The re-check
		// under the lock below still guards the race where a concurrent
		// call commits the same key while this one is planning.
		m.mu.Lock()
		a, done, err := m.idemAllocLocked(co.idemKey)
		m.mu.Unlock()
		if done {
			return a, err
		}
	}
	timedPlan := func(led *Ledger) (Placement, []linkDemand, time.Duration, error) {
		start := now()
		p, contribs, err := plan(led)
		return p, contribs, since(start), err
	}
	for attempt := 0; ; attempt++ {
		// The attempt after the optimistic ones plans on the live ledger
		// with the lock held: nothing moves under that plan, so it settles
		// the admission and the loop ends there. Planning and the in-memory
		// apply are then serialized, but the journal record is still only
		// STAGED under the lock and the durability wait runs after the
		// unlock, so such admissions share group-commit fsyncs too.
		underLock := attempt == optimistic
		var (
			p        Placement
			contribs []linkDemand
			planDur  time.Duration
			err      error
			ver      uint64
		)
		if underLock {
			m.mu.Lock()
			if a, done, ierr := m.idemAllocLocked(co.idemKey); done {
				m.mu.Unlock()
				return a, ierr
			}
			ver = m.version
			p, contribs, planDur, err = timedPlan(m.led)
		} else {
			var snap *Ledger
			snap, ver = m.snapshotVer()
			p, contribs, planDur, err = timedPlan(snap)
			m.mu.Lock()
		}
		m.adm.Plan.Observe(planDur)
		// A concurrent call may have committed the key while this one
		// planned on its snapshot (never under the lock, where the check
		// above already ran).
		if a, done, ierr := m.idemAllocLocked(co.idemKey); done {
			m.mu.Unlock()
			return a, ierr
		}
		if err != nil {
			// A rejection planned on the current version is authoritative;
			// one planned on a stale snapshot might be cured by a release
			// that landed meanwhile, so it conflicts and retries. Non-
			// capacity errors (a bad request) never depend on the ledger.
			if m.version == ver || !errors.Is(err, ErrNoCapacity) {
				m.mu.Unlock()
				return nil, err
			}
			m.adm.Conflicts++
			m.adm.Retries++
			m.mu.Unlock()
			continue
		}
		switch {
		case underLock:
			if attempt > 0 {
				m.adm.Fallbacks++
			}
			m.adm.Locked++
		case m.version == ver:
			m.adm.FastPath++
		default:
			// The ledger moved under the plan: recheck only what the
			// placement touches — free slots on its machines and Eq. 4
			// (O_L < 1) on its contributing links — against live state.
			// The contributions themselves depend only on the topology and
			// the request, never on ledger state, so they remain exact.
			if verr := ValidatePlacement(m.led, contribs, &p, wantVMs); verr != nil {
				m.adm.Conflicts++
				m.adm.Retries++
				m.mu.Unlock()
				continue
			}
			m.adm.Revalidated++
		}
		mut.Placement = &p
		mut.Contribs = exportContribs(contribs)
		a, wait, err := m.admitStagedLocked(mut)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if err := wait(); err != nil {
			return nil, err
		}
		return a, nil
	}
}

// admitStagedLocked assigns the job ID, stages the journal record, and
// applies the admission. The returned wait must be invoked after m.mu is
// released; it reports durability. A mutation arriving with a preset Job
// (WithJobID — the sharded router's externally allocated IDs) keeps it;
// applyLocked max-merges external IDs into nextID, so sequential and
// external assignment never collide on a manager that sees both.
func (m *Manager) admitStagedLocked(mut Mutation) (*Allocation, func() error, error) {
	if mut.Job == 0 {
		mut.Job = m.nextID + 1
	} else if _, ok := m.jobs[mut.Job]; ok {
		return nil, nil, fmt.Errorf("%w: duplicate job id %d", ErrBadRequest, mut.Job)
	}
	wait, err := m.stageLocked(mut)
	if err != nil {
		return nil, nil, err
	}
	if err := m.applyLocked(mut); err != nil {
		return nil, nil, err
	}
	return m.jobs[mut.Job], wait, nil
}
