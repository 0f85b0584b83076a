package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/topology"
)

// Fault routing: a machine lives in exactly one pod and a link is owned
// by the pod of its child endpoint, so every fault op and every repair
// targets exactly one pod manager, and runs that pod's own driver, which
// decides and commits under one hold of the pod's lock in both modes.
// The router-level idempotency check runs BEFORE the pod and the shadow
// see anything: a key the same op already committed must skip both (the
// machine may have been restored since; re-failing it in the shadow alone
// would diverge the merged view), and a key anything else committed is
// refused, as it is for an admission or a release. Fast-mode racers under
// one key that all pass it meet at the pod, whose own table answers the
// losers.

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

// fault runs one fault op on its owning pod (and, in strict mode,
// replays it into the shadow).
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
	node := mut.Node
	if mut.Op == core.OpFailLink || mut.Op == core.OpRestoreLink {
		node = topology.NodeID(mut.Link)
	}
	if node < 0 || int(node) >= r.topo.Len() || r.pods.Of(node) < 0 {
		return fmt.Errorf("%w: shard: node %d is outside every pod", core.ErrBadRequest, node)
	}
	m, key := r.mgrs[r.pods.Of(node)], core.WithIdemKey(mut.IdemKey)
	switch mut.Op {
	case core.OpFailMachine:
		_, err = m.FailMachine(mut.Node, key)
	case core.OpRestoreMachine:
		err = m.RestoreMachine(mut.Node, key)
	case core.OpFailLink:
		_, err = m.FailLink(mut.Link, key)
	default:
		err = m.RestoreLink(mut.Link, key)
	}
	if err != nil {
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

// repairOne runs the owning pod's RepairJob and (in strict mode) replays
// the committed repair, rebuilt from its result, into the shadow. Callers
// in strict mode hold opMu.
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
	res, err := r.mgrs[pods[0]].RepairJob(id)
	if err != nil {
		return core.RepairResult{}, err
	}
	mut := core.Mutation{Op: core.OpRepair, Job: id, Outcome: res.Outcome,
		Placement: &res.Placement, Contribs: res.Contribs, EffectiveEps: res.EffectiveEps}
	if r.mode == Strict {
		if err := r.shadow.CommitExternal(mut); err != nil {
			return core.RepairResult{}, fmt.Errorf("shard: shadow diverged on repair of job %d: %w", id, err)
		}
	}
	if res.Outcome == core.RepairFailed {
		r.released(mut)
	}
	r.assertConsistent()
	return res, nil
}
