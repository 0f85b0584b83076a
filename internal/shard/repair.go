package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/topology"
)

// Fault routing: a machine lives in exactly one pod and a link is owned
// by the pod of its child endpoint, so every fault op targets exactly
// one pod manager. The router-level idempotency check runs BEFORE the
// pod and the shadow see anything: a key the same op already committed
// must skip both (the machine may have been restored since; re-failing it
// in the shadow alone would diverge the merged view), and a key anything
// else committed is refused, as it is for an admission or a release.

// FailMachine takes a machine down. It returns the IDs of every job with
// displaced VMs anywhere in the datacenter, sorted — the unsharded
// contract, assembled as a union over pods.
func (r *Router) FailMachine(id topology.NodeID, opts ...core.CallOption) ([]core.JobID, error) {
	if err := r.fault(core.Mutation{Op: core.OpFailMachine, Node: id}, opts); err != nil {
		return nil, err
	}
	return r.AffectedJobs(), nil
}

// RestoreMachine brings a failed machine back.
func (r *Router) RestoreMachine(id topology.NodeID, opts ...core.CallOption) error {
	return r.fault(core.Mutation{Op: core.OpRestoreMachine, Node: id}, opts)
}

// FailLink takes a link down. Like FailMachine it returns every
// currently displaced job, sorted.
func (r *Router) FailLink(id topology.LinkID, opts ...core.CallOption) ([]core.JobID, error) {
	if err := r.fault(core.Mutation{Op: core.OpFailLink, Link: id}, opts); err != nil {
		return nil, err
	}
	return r.AffectedJobs(), nil
}

// RestoreLink brings a failed link back.
func (r *Router) RestoreLink(id topology.LinkID, opts ...core.CallOption) error {
	return r.fault(core.Mutation{Op: core.OpRestoreLink, Link: id}, opts)
}

// fault routes one fault-overlay mutation to its owning pod (and, in
// strict mode, replays it into the shadow).
func (r *Router) fault(mut core.Mutation, opts []core.CallOption) error {
	mut.IdemKey = core.ResolveCallOptions(opts...).IdemKey
	if r.mode == Strict {
		r.opMu.Lock()
		defer r.opMu.Unlock()
	}
	r.tabMu.Lock()
	_, bound, err := r.idem.Replay(mut.IdemKey, mut.Op, 0)
	r.tabMu.Unlock()
	if bound {
		return err
	}
	var pod int
	switch mut.Op {
	case core.OpFailLink, core.OpRestoreLink:
		pod = r.pods.OfLink(mut.Link)
	default:
		pod = r.pods.Of(mut.Node)
	}
	if pod < 0 {
		return fmt.Errorf("shard: node %d is outside every pod", mut.Node)
	}
	if err := r.mgrs[pod].CommitExternal(mut); err != nil {
		return err
	}
	if r.mode == Strict {
		if err := r.shadow.CommitExternal(mut); err != nil {
			return fmt.Errorf("shard: shadow diverged on %v: %w", mut.Op, err)
		}
	}
	r.faulted(mut)
	r.assertConsistent()
	return nil
}

// AffectedJobs returns the IDs of admitted jobs with displaced VMs,
// sorted — the union over pods, with cross-pod jobs deduplicated.
func (r *Router) AffectedJobs() []core.JobID {
	seen := make(map[core.JobID]bool)
	var out []core.JobID
	for _, m := range r.mgrs {
		for _, id := range m.AffectedJobs() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RepairJob repairs one job. Repair planning is pod-scoped — the owning
// pod's manager re-runs the allocation DP inside its own subtree — so
// cross-pod jobs are not repairable (ErrCrossPodRepair): release and
// re-admit instead. This is a deliberate divergence from the unsharded
// manager, which plans repairs over the whole tree; see docs/SHARDING.md.
func (r *Router) RepairJob(id core.JobID) (core.RepairResult, error) {
	if r.mode == Strict {
		r.opMu.Lock()
		defer r.opMu.Unlock()
	}
	return r.repairOne(id)
}

// RepairAll repairs every affected job in ID order, skipping cross-pod
// jobs (they cannot be planned pod-locally). On an error it returns the
// repairs that committed before it alongside the error.
func (r *Router) RepairAll() ([]core.RepairResult, error) {
	if r.mode == Strict {
		r.opMu.Lock()
		defer r.opMu.Unlock()
	}
	var out []core.RepairResult
	for _, id := range r.AffectedJobs() {
		r.tabMu.Lock()
		cross := len(r.jobPods[id]) > 1
		r.tabMu.Unlock()
		if cross {
			continue
		}
		res, err := r.repairOne(id)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// repairOne plans a repair on the owning pod, commits the planned
// mutation there, and (in strict mode) replays it into the shadow.
// Callers in strict mode hold opMu.
func (r *Router) repairOne(id core.JobID) (core.RepairResult, error) {
	r.tabMu.Lock()
	pods, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if !ok {
		return core.RepairResult{}, fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	if len(pods) > 1 {
		return core.RepairResult{}, fmt.Errorf("%w: job %d spans pods %v", ErrCrossPodRepair, id, pods)
	}
	pod := r.mgrs[pods[0]]
	start := core.Now()
	mut, displaced, err := pod.PlanRepair(id)
	if err != nil {
		return core.RepairResult{}, err
	}
	if err := pod.CommitExternal(mut); err != nil {
		return core.RepairResult{}, err
	}
	if r.mode == Strict {
		if err := r.shadow.CommitExternal(mut); err != nil {
			return core.RepairResult{}, fmt.Errorf("shard: shadow diverged on repair of job %d: %w", id, err)
		}
	}
	res := core.RepairResult{
		Job: id, Outcome: mut.Outcome, MovedVMs: displaced,
		EffectiveEps: mut.EffectiveEps, Elapsed: core.Now().Sub(start),
	}
	switch mut.Outcome {
	case core.RepairFailed:
		r.released(mut)
	case core.RepairNoop:
		if p, perr := pod.JobPlacement(id); perr == nil {
			res.Placement = p
		}
	default:
		if mut.Placement != nil {
			res.Placement = mut.Placement.Clone()
		}
	}
	r.assertConsistent()
	return res, nil
}
