package core

import (
	"fmt"

	"repro/internal/metrics"
)

// The admission path: plan under the lock, stage, wait outside it. An
// admission takes the write lock, resolves its idempotency key, runs the
// allocation DP on the live ledger — so every acceptance and every
// rejection is decided against the state it commits to, Algorithm 1 one
// request at a time — stages the journal record, applies it, and releases
// the lock before waiting for durability. Concurrency comes from the two
// places it is measured to pay: group commit (concurrent callers share
// the fsync their waits overlap on) and pod sharding (one lock per pod).

// AdmissionStats counts admissions and the plans behind them. Locked
// counts committed admissions, every one of which planned under the write
// lock; Plan summarizes the planning time of every plan, committed or
// rejected.
type AdmissionStats struct {
	// The five counters of the snapshot-planned pipeline, which is gone:
	// they stay declared only while bench/ and the pinned /v1/status key
	// set still name them (see ROADMAP, notes for the next re-anchor).

	// Deprecated: always 0.
	FastPath int64 `json:"fastPath"`
	// Deprecated: always 0.
	Revalidated int64 `json:"revalidated"`
	// Deprecated: always 0.
	Conflicts int64 `json:"conflicts"`
	// Deprecated: always 0.
	Retries int64 `json:"retries"`
	// Deprecated: always 0.
	Fallbacks int64 `json:"fallbacks"`

	Locked int64                  `json:"locked"`
	Plan   metrics.LatencySummary `json:"plan"`

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

// AdmissionStats returns a snapshot of the admission counters.
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

// planLocked runs the allocation DP for the request mut carries (exactly
// one of Homog/Hetero) on the live ledger and fills in the placement and
// the per-link contributions a commit would charge. Nothing is modified;
// the plan holds until the next mutation, i.e. while the caller keeps
// m.mu.
func (m *Manager) planLocked(mut *Mutation) error {
	var (
		p        Placement
		contribs []Contribution
		err      error
	)
	start := Now()
	if mut.Homog != nil {
		p, contribs, err = m.plans.allocateHomog(m.led, *mut.Homog, m.policy, m.scope, true)
	} else {
		p, contribs, err = m.planHetero(m.led, *mut.Hetero, planAdmit)
	}
	m.adm.Plan.Observe(since(start))
	if err != nil {
		return err
	}
	mut.Placement, mut.Contribs = &p, contribs
	return nil
}

// allocate is the admission driver behind AllocateHomog and
// AllocateHetero. mut carries the request (Homog or Hetero, IdemKey, and
// Job when the ID was assigned externally).
func (m *Manager) allocate(mut Mutation) (*Allocation, error) {
	m.mu.Lock()
	a, wait, err := m.admitLocked(mut)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := wait(); err != nil {
		return nil, err
	}
	return a, nil
}

// admitLocked is the under-lock half of an admission: replay a committed
// idempotency key, or plan, assign the job ID, stage and apply. The
// returned wait must be invoked after m.mu is released. A mutation
// arriving with a preset Job (WithJobID — the sharded router's
// externally allocated IDs) keeps it; applyLocked max-merges external IDs
// into nextID, so sequential and external assignment never collide on a
// manager that sees both.
func (m *Manager) admitLocked(mut Mutation) (*Allocation, func() error, error) {
	if is, bound, err := m.idem.Replay(mut.IdemKey, OpAlloc, 0); err != nil {
		return nil, nil, err
	} else if bound {
		return is.Allocation(), noWait, nil
	}
	if err := m.planLocked(&mut); err != nil {
		return nil, nil, err
	}
	if mut.Job == 0 {
		mut.Job = m.nextID + 1
	} else if _, ok := m.jobs[mut.Job]; ok {
		return nil, nil, fmt.Errorf("%w: duplicate job id %d", ErrBadRequest, mut.Job)
	}
	wait, err := m.commitStagedLocked(mut)
	if err != nil {
		return nil, nil, err
	}
	m.adm.Locked++
	return m.jobs[mut.Job], wait, nil
}
