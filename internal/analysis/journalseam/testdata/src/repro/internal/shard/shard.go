// Package shard is a fixture shadowing repro/internal/shard: a
// miniature Router with the recovered tables (jobPods, idem) and the
// same commit-seam shape as the real one.
package shard

import "repro/internal/core"

type Router struct {
	mgrs    []*core.Manager
	jobPods map[core.JobID]int
	idem    core.IdemTable
}

// --- negative: constructors may initialise the tables directly ---

func NewRouter() *Router {
	return &Router{
		jobPods: map[core.JobID]int{},
		idem:    core.IdemTable{},
	}
}

// --- negative: the three writers that mirror a settled commit ---

func (r *Router) admitted(mut core.Mutation, pod int) {
	r.jobPods[mut.Job] = pod
	r.idem.Bind(mut)
}

func (r *Router) released(mut core.Mutation) {
	delete(r.jobPods, mut.Job)
	r.idem.Bind(mut)
}

func (r *Router) faulted(mut core.Mutation) {
	r.idem.Bind(mut)
}

// --- negative: recovery rebuilds the tables from the pod WALs ---

func (r *Router) rebuildTables(jobs [][]core.JobID) {
	clear(r.jobPods)
	for pod, ids := range jobs {
		for _, id := range ids {
			r.jobPods[id] = pod
		}
	}
}

// --- negative: the live paths commit and then call a writer ---

func (r *Router) Release(mut core.Mutation) error {
	if _, bound := r.idem.Replay(mut.Key); bound {
		return nil
	}
	if err := r.mgrs[r.jobPods[mut.Job]].Release(mut.Job); err != nil {
		return err
	}
	r.released(mut)
	return nil
}

// --- negative: reads of the tables are fine anywhere ---

func (r *Router) Running() int {
	return len(r.jobPods)
}

// --- positive: table writes outside the writer set, a commit path
// included ---

func (r *Router) dispatch(mut core.Mutation) error {
	if err := r.mgrs[0].Release(mut.Job); err != nil {
		return err
	}
	r.jobPods[mut.Job] = 0 // want `write to Router\.jobPods outside the shard commit seam`
	return nil
}

func (r *Router) fault(mut core.Mutation) {
	r.idem.Bind(mut) // want `Bind on Router\.idem outside the shard commit seam`
}

func (r *Router) statusScrub(id core.JobID) {
	delete(r.jobPods, id) // want `delete of Router\.jobPods outside the shard commit seam`
}

func (r *Router) forgetKey(key string) {
	r.idem[key] = 0 // want `write to Router\.idem outside the shard commit seam`
}

func (r *Router) resetTables() {
	r.jobPods = map[core.JobID]int{} // want `write to Router\.jobPods outside the shard commit seam`
}
