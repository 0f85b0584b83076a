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
// decides and commits under one hold of the pod's lock. The router-level
// idempotency check runs BEFORE the pod sees anything: a key the same op
// already committed replays without touching the pod (the machine may
// have been restored since), and a key anything else committed is
// refused, as it is for an admission or a release. Racers under one key
// that all pass it meet at the pod, whose own table answers the losers.

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

// fault runs one fault op on its owning pod.
func (r *Router) fault(mut core.Mutation, opts []core.CallOption) error {
	mut.IdemKey = core.ResolveCallOptions(opts...)
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
	r.faulted(mut)
	return nil
}

// AffectedJobs returns the IDs of admitted jobs with displaced VMs,
// sorted — the union over pods.
func (r *Router) AffectedJobs() []core.JobID {
	var out []core.JobID
	for _, m := range r.mgrs {
		out = append(out, m.AffectedJobs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RepairJob repairs one job: the owning pod's manager re-runs the
// allocation DP inside its own subtree, where the whole job lives.
func (r *Router) RepairJob(id core.JobID) (core.RepairResult, error) {
	r.tabMu.Lock()
	pod, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if !ok {
		return core.RepairResult{}, fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	res, err := r.mgrs[pod].RepairJob(id)
	if err != nil {
		return core.RepairResult{}, err
	}
	if res.Outcome == core.RepairFailed {
		r.released(core.Mutation{Op: core.OpRepair, Job: id})
	}
	return res, nil
}

// RepairAll repairs every affected job in ID order. On an error it
// returns the repairs that committed before it alongside the error.
func (r *Router) RepairAll() ([]core.RepairResult, error) {
	var out []core.RepairResult
	for _, id := range r.AffectedJobs() {
		res, err := r.RepairJob(id)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
