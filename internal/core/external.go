package core

import "repro/internal/stats"

// External planning seam: the strict sharded router (internal/shard)
// plans an admission on its shadow of the whole tree, commits the frame
// into the pods owning the touched state and replays it into the shadow,
// all under its opMu — so nothing lands between a plan and its commit,
// which does not re-check Eq. 4. PlanHomog/PlanHetero expose the plan
// half — the same DP the Allocate* calls run, minus the commit — and
// CommitExternal the commit half: validate + journal + apply of a
// mutation this manager did not plan itself. svclint lets only
// internal/shard call them; fault ops and repairs run the pods' drivers.

// PlanHomog plans a homogeneous admission against the live ledger and
// returns the uncommitted mutation: request, placement, and the exact
// per-link contributions a commit would charge. Job and IdemKey are left
// zero for the caller to assign. The ledger is not modified; committing
// the plan (CommitExternal, or Replay on a twin) is the caller's job,
// and any mutation that lands in between invalidates the plan.
func (m *Manager) PlanHomog(req Homogeneous) (Mutation, error) {
	return m.plan(Mutation{Op: OpAlloc, Homog: &req})
}

// PlanHetero is PlanHomog for heterogeneous requests, running whichever
// hetero allocator the manager is configured with.
func (m *Manager) PlanHetero(req Heterogeneous) (Mutation, error) {
	h := Heterogeneous{Demands: append([]stats.Normal(nil), req.Demands...)}
	return m.plan(Mutation{Op: OpAlloc, Hetero: &h})
}

// plan runs the admission path's plan step (planLocked) and stops there.
func (m *Manager) plan(mut Mutation) (Mutation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.planLocked(&mut); err != nil {
		return Mutation{}, err
	}
	return mut, nil
}

// CommitExternal durably commits a mutation that was planned elsewhere.
// The mutation is validated with the same semantic checks recovery
// replay applies — an externally planned frame that does not fit this
// manager's state is vetoed before anything reaches the journal. The
// journal record is staged under the write lock (preserving log order =
// apply order) and the durability wait runs after unlock, so concurrent
// CommitExternal calls against different managers fsync in parallel and
// calls against the same manager share a group commit.
func (m *Manager) CommitExternal(mut Mutation) error {
	m.mu.Lock()
	if err := m.validateMutationLocked(mut); err != nil {
		m.mu.Unlock()
		return err
	}
	wait, err := m.commitStagedLocked(mut)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return wait()
}
