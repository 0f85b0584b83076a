package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// This file is the manager's failure-handling layer: injecting machine and
// link faults into the live ledger, detecting which admitted jobs lost VMs,
// and repairing them by re-running the allocation DP with the surviving
// placement pinned (Algorithm 1 with lower bounds, see pinned.go). When no guarantee-preserving repair exists the manager falls
// back to a documented graceful-degradation path: the job is re-placed with
// the admission condition relaxed and its honest, weakened effective eps is
// recorded instead of silently violating Eq. 4.

// RepairOutcome classifies what RepairJob did to one job.
type RepairOutcome int

const (
	// RepairNoop: the job lost no VMs; its placement is untouched.
	RepairNoop RepairOutcome = iota
	// RepairMoved: displaced VMs were re-placed and the original
	// guarantee (risk factor eps) still holds on every link.
	RepairMoved
	// RepairDegraded: the job was re-placed only by relaxing the
	// admission condition; it now runs with a weakened effective eps
	// (see RepairResult.EffectiveEps and Manager.EffectiveEps).
	RepairDegraded
	// RepairFailed: not even a relaxed placement fits (e.g. too few
	// alive slots); the job was evicted and its reservations freed.
	RepairFailed
)

// String implements fmt.Stringer.
func (o RepairOutcome) String() string {
	switch o {
	case RepairNoop:
		return "noop"
	case RepairMoved:
		return "moved"
	case RepairDegraded:
		return "degraded"
	case RepairFailed:
		return "failed"
	default:
		return fmt.Sprintf("RepairOutcome(%d)", int(o))
	}
}

// RepairResult reports one RepairJob invocation.
type RepairResult struct {
	Job       JobID
	Outcome   RepairOutcome
	Placement Placement // final placement (empty when Outcome == RepairFailed)
	// MovedVMs is the number of displaced VMs that had to be re-placed
	// (0 for RepairNoop; the job's full size may move for heterogeneous
	// repairs, see RepairJob).
	MovedVMs int
	// EffectiveEps is the risk factor the job actually gets after the
	// repair: the manager's eps for Noop/Moved, the weakened per-job
	// bound for Degraded, and 1 for Failed (the job is gone).
	EffectiveEps float64
	Elapsed      time.Duration
}

// FailureStats is a point-in-time snapshot of the manager's fault and
// repair activity, for the HTTP API and metrics scrapes: the journaled
// counters, three gauges and the repair timings.
type FailureStats struct {
	CounterState

	MachinesDown int `json:"machines_down"`
	LinksDown    int `json:"links_down"`
	DegradedJobs int `json:"degraded_jobs"`

	RepairLatency metrics.LatencySummary `json:"repair_latency"`
}

// printedCounters is CounterState under the tags of GET /v1/failures, which
// prints the zeros a state leaves out. The field lists must stay identical
// or the conversion below stops compiling.
type printedCounters struct {
	MachineFailures uint64 `json:"machine_failures"`
	MachineRestores uint64 `json:"machine_restores"`
	LinkFailures    uint64 `json:"link_failures"`
	LinkRestores    uint64 `json:"link_restores"`
	NoopRepairs     uint64 `json:"noop_repairs"`
	MovedRepairs    uint64 `json:"moved_repairs"`
	DegradedRepairs uint64 `json:"degraded_repairs"`
	FailedRepairs   uint64 `json:"failed_repairs"`
}

// MarshalJSON writes the body of GET /v1/failures: the counters with their
// zeros, then the rest. encoding/json lets printedCounters' fields replace
// the same-named ones of rest's embedded CounterState, which sit one level
// deeper. Decoding needs no twin: both tag sets name the same keys.
func (s FailureStats) MarshalJSON() ([]byte, error) {
	type rest FailureStats // without this method
	return json.Marshal(struct {
		printedCounters
		rest
	}{printedCounters(s.CounterState), rest(s)})
}

// fault commits one fault-overlay mutation (or a SetOffline) and, for the
// Fail* calls, reports the jobs displaced once it is applied. A key the
// same op already committed skips the mutation entirely (fault ops are
// idempotent; the stored binding just marks the request as applied). A
// target that is not a machine, or has no uplink, is ErrBadRequest.
func (m *Manager) fault(mut Mutation, opts []CallOption, wantAffected bool) ([]JobID, error) {
	mut.IdemKey = evalCallOpts(opts).idemKey
	wait := noWait
	m.mu.Lock()
	_, bound, err := m.idem.Replay(mut.IdemKey, mut.Op, 0)
	if err == nil && !bound {
		if err = m.validateMutationLocked(mut); err == nil {
			wait, err = m.commitStagedLocked(mut)
		}
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	var affected []JobID
	if wantAffected {
		affected = m.affectedLocked()
	}
	m.mu.Unlock()
	if err := wait(); err != nil {
		return nil, err
	}
	return affected, nil
}

// FailMachine takes a machine down at runtime. VMs on it keep their slot
// and bandwidth bookkeeping (so repair can roll them back exactly), but the
// machine reports zero free slots and its jobs are considered displaced.
// It returns the IDs of the jobs that now have displaced VMs anywhere in
// the datacenter, sorted. It fails when id is not a machine (ErrBadRequest)
// or the attached journal rejects the mutation.
func (m *Manager) FailMachine(id topology.NodeID, opts ...CallOption) ([]JobID, error) {
	return m.fault(Mutation{Op: OpFailMachine, Node: id}, opts, true)
}

// RestoreMachine brings a failed machine back into service.
func (m *Manager) RestoreMachine(id topology.NodeID, opts ...CallOption) error {
	_, err := m.fault(Mutation{Op: OpRestoreMachine, Node: id}, opts, false)
	return err
}

// FailLink takes a link down at runtime, disconnecting the whole subtree
// below it. It returns the IDs of the jobs that now have displaced VMs,
// sorted.
func (m *Manager) FailLink(id topology.LinkID, opts ...CallOption) ([]JobID, error) {
	return m.fault(Mutation{Op: OpFailLink, Link: id}, opts, true)
}

// RestoreLink brings a failed link back into service.
func (m *Manager) RestoreLink(id topology.LinkID, opts ...CallOption) error {
	_, err := m.fault(Mutation{Op: OpRestoreLink, Link: id}, opts, false)
	return err
}

// AffectedJobs returns the IDs of admitted jobs with at least one VM on a
// machine that is failed or unreachable, sorted.
func (m *Manager) AffectedJobs() []JobID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.affectedLocked()
}

func (m *Manager) affectedLocked() []JobID {
	var out []JobID
	for id, a := range m.jobs {
		if m.displacedLocked(a) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// displacedLocked counts the job's VMs sitting on dead (failed or
// unreachable) machines.
func (m *Manager) displacedLocked(a *Allocation) int {
	n := 0
	for _, e := range a.Placement.Entries {
		if !m.led.Faults().Alive(e.Machine) {
			n += e.Count
		}
	}
	return n
}

// EffectiveEps returns the risk factor the job actually gets: the
// manager's eps normally, or the weakened per-job bound recorded by a
// degraded repair.
func (m *Manager) EffectiveEps(id JobID) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if eps, ok := m.degraded[id]; ok {
		return eps, nil
	}
	return m.led.Epsilon(), nil
}

// RepairJob restores the bandwidth guarantee of one job after failures.
//
// If the job lost no VMs it is a no-op (RepairNoop) and the returned
// placement is identical to the job's current one. Otherwise the job's
// reservations are rolled back and it is re-placed:
//
//   - Homogeneous jobs run Algorithm 1 with the survivors pinned
//     (allocateHomogPinnedScoped), so surviving VMs stay exactly where they are.
//     A strict pass enforces the original admission condition
//     (RepairMoved); if none exists, a relaxed pass minimizes — but no
//     longer bounds — occupancy, and the job is marked degraded with its
//     honest effective eps (RepairDegraded).
//   - Heterogeneous jobs are fully re-allocated with the configured
//     algorithm (the hetero DPs have no pinned variant, so surviving VMs
//     may move; MovedVMs still reports only the displaced count). Only a
//     strict pass is attempted.
//
// When not even the fallback fits, the job is evicted and its reservations
// freed (RepairFailed).
func (m *Manager) RepairJob(id JobID) (RepairResult, error) {
	m.mu.Lock()
	a, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return RepairResult{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	res, wait, err := m.repairLocked(a)
	m.mu.Unlock()
	if err != nil {
		return RepairResult{}, err
	}
	if err := wait(); err != nil {
		return RepairResult{}, err
	}
	return res, nil
}

// RepairAll repairs every affected job in ID order and returns one result
// per job. The whole sweep is staged under one hold of the lock and waited
// for once after it, so its records share a group commit. On a journal
// failure it returns the repairs applied before the failure alongside the
// error, after waiting for the records those repairs staged.
func (m *Manager) RepairAll() ([]RepairResult, error) {
	var (
		out   []RepairResult
		waits []func() error
		err   error
	)
	m.mu.Lock()
	for _, id := range m.affectedLocked() {
		res, wait, rerr := m.repairLocked(m.jobs[id])
		if rerr != nil {
			err = rerr
			break
		}
		out = append(out, res)
		waits = append(waits, wait)
	}
	m.mu.Unlock()
	for _, wait := range waits {
		if werr := wait(); werr != nil && err == nil {
			err = werr
		}
	}
	return out, err
}

// repairLocked restores one job's guarantee. The repair is PLANNED on a
// scratch clone of the ledger (freeing the job, running the pinned or
// full DP, pricing the degraded fallback), then the chosen outcome is
// staged in the journal and executed against the live ledger through the
// shared apply path — so the journal records the decision before any live
// state moves, and replaying it is bit-identical. The returned wait must
// be invoked after m.mu is released; Elapsed covers the plan and the
// apply, not that wait.
func (m *Manager) repairLocked(a *Allocation) (RepairResult, func() error, error) {
	start := Now()
	mut, displaced := m.planRepairLocked(a)
	wait, err := m.commitStagedLocked(mut)
	if err != nil {
		return RepairResult{}, nil, err
	}
	res := RepairResult{Job: a.ID, Outcome: mut.Outcome, MovedVMs: displaced, EffectiveEps: mut.EffectiveEps}
	switch {
	case mut.Outcome == RepairNoop:
		res.Placement = a.Placement.Clone()
	case mut.Placement != nil:
		res.Placement = mut.Placement.Clone()
	}
	res.Elapsed = since(start)
	m.repairLatency.Observe(res.Elapsed)
	return res, wait, nil
}

// planRepairLocked chooses the repair outcome for one job on a scratch
// clone of the ledger and returns the uncommitted repair mutation plus
// the displaced VM count. All planning is confined to the manager's plan
// scope, so a pod-local manager repairs jobs strictly inside its pod.
// The DPs run cold in pooled tables, never as plan-cache entries: the
// scratch ledger diverges from the live one after the rollback, and cache
// entries keyed by its bumped subtree versions could alias future live
// versions.
func (m *Manager) planRepairLocked(a *Allocation) (Mutation, int) {
	displaced := m.displacedLocked(a)
	if displaced == 0 {
		return Mutation{Op: OpRepair, Job: a.ID, Outcome: RepairNoop, EffectiveEps: m.effectiveEpsLocked(a.ID)}, 0
	}

	// Free the whole job on the scratch ledger first: pinned slots must
	// be free for the pinned plan, and the relaxed pass must not
	// double-count the job's own stranded reservations.
	scratch := m.led.Clone()
	rollback(scratch, &a.Placement, a.contribs)

	var mut Mutation
	if a.homog != nil {
		pinned := make(map[topology.NodeID]int)
		for _, e := range a.Placement.Entries {
			if scratch.Faults().Alive(e.Machine) {
				pinned[e.Machine] = e.Count
			}
		}
		if p, err := allocateHomogPinnedScoped(scratch, *a.homog, m.policy, pinned, false, m.scope); err == nil {
			mut = Mutation{Op: OpRepair, Job: a.ID, Outcome: RepairMoved, Placement: &p, EffectiveEps: m.led.Epsilon()}
		} else if p, err := allocateHomogPinnedScoped(scratch, *a.homog, m.policy, pinned, true, m.scope); err == nil {
			contribs := m.derive.contribs(scratch.Topology(), a.homog, nil, &p)
			commit(scratch, &p, contribs)
			mut = Mutation{Op: OpRepair, Job: a.ID, Outcome: RepairDegraded,
				Placement: &p, EffectiveEps: effectiveEps(scratch, contribs)}
		}
	} else if a.hetero != nil {
		if p, err := m.planHetero(scratch, *a.hetero, planScratch); err == nil {
			mut = Mutation{Op: OpRepair, Job: a.ID, Outcome: RepairMoved, Placement: &p, EffectiveEps: m.led.Epsilon()}
		}
	}
	if mut.Op == 0 {
		// Eviction: not even the fallback fits.
		mut = Mutation{Op: OpRepair, Job: a.ID, Outcome: RepairFailed, EffectiveEps: 1}
	}
	return mut, displaced
}

// effectiveEpsLocked is EffectiveEps with m.mu already held.
func (m *Manager) effectiveEpsLocked(id JobID) float64 {
	if eps, ok := m.degraded[id]; ok {
		return eps
	}
	return m.led.Epsilon()
}

// effectiveEps computes the honest risk factor of a job whose
// contributions are already committed to the given ledger: the worst
// per-link outage probability over the links it touches, floored at the
// ledger's eps (a degraded job is never reported as safer than the
// guarantee it bought).
func effectiveEps(led *Ledger, contribs []Contribution) float64 {
	eff := led.Epsilon()
	for _, c := range contribs {
		if p := led.LinkOutageProb(c.Link); p > eff {
			eff = p
		}
	}
	return eff
}

// FailureStats returns a snapshot of fault and repair activity.
func (m *Manager) FailureStats() FailureStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.led.Faults()
	return FailureStats{
		CounterState:  m.counters,
		MachinesDown:  f.MachinesDown(),
		LinksDown:     f.LinksDown(),
		DegradedJobs:  len(m.degraded),
		RepairLatency: m.repairLatency,
	}
}
