package shard

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
)

// AllocateHomog admits a homogeneous request through the sharded control
// plane; see admit.
func (r *Router) AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	return r.admit(core.Mutation{Op: core.OpAlloc, Homog: &req}, opts)
}

// AllocateHetero admits a heterogeneous request through the sharded
// control plane; see admit.
func (r *Router) AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	return r.admit(core.Mutation{Op: core.OpAlloc, Hetero: &req}, opts)
}

// admit runs an admission for both entry points. req carries the
// request the way core's own admission takes it: the op and one of
// Homog/Hetero. A bound key replays, a key in flight waits for its
// claim, and anything else is dispatched to the pods.
//
// A racer that loses the claim receives the first caller's settled
// outcome — including its error. The unsharded manager would re-plan
// after a failed keyed attempt; the router trades that retry for never
// blocking admissions on a sibling pod's planning (see docs/SHARDING.md).
func (r *Router) admit(req core.Mutation, opts []core.CallOption) (*core.Allocation, error) {
	req.IdemKey = core.ResolveCallOptions(opts...)
	var (
		is          core.IdemState
		bound       bool
		err         error
		mine, other *claim
	)
	if req.IdemKey != "" {
		// One hold of tabMu for the table and the claim: a racer must find
		// the key either bound or claimed, or duplicate keys admit twice.
		// An unkeyed admission has nothing to ask and does not queue here.
		r.tabMu.Lock()
		is, bound, err = r.idem.Replay(req.IdemKey, core.OpAlloc, 0)
		if !bound {
			if other = r.claims[req.IdemKey]; other == nil {
				mine = &claim{done: make(chan struct{})}
				r.claims[req.IdemKey] = mine
			}
		}
		r.tabMu.Unlock()
	}
	switch {
	case err != nil:
		return nil, err
	case bound:
		return is.Allocation(), nil
	case other != nil:
		<-other.done
		if other.err != nil {
			return nil, other.err
		}
		return &core.Allocation{ID: other.res.ID, Placement: other.res.Placement.Clone()}, nil
	}
	a, err := r.dispatch(req)
	if mine != nil {
		mine.res, mine.err = a, err
		r.tabMu.Lock()
		delete(r.claims, req.IdemKey)
		r.tabMu.Unlock()
		close(mine.done)
	}
	return a, err
}

// Release frees an admitted job on the pod holding it.
func (r *Router) Release(id core.JobID, opts ...core.CallOption) error {
	mut := core.Mutation{Op: core.OpRelease, Job: id, IdemKey: core.ResolveCallOptions(opts...)}
	r.tabMu.Lock()
	_, bound, err := r.idem.Replay(mut.IdemKey, core.OpRelease, id)
	pod, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if bound {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	// The owning pod journals the full mutation — idempotency key included
	// — so the key's durable home is that pod's WAL exactly as in the
	// unsharded manager. Racers under one key get here together, and the
	// pod's own table answers the losers as the unsharded manager would
	// (nil, not ErrUnknownJob).
	if err := r.mgrs[pod].Release(id, core.WithIdemKey(mut.IdemKey)); err != nil {
		return err
	}
	r.released(mut)
	return nil
}

// The router's books — jobPods, idem — have four writers: the three
// below, each mirroring one settled commit, and rebuildTables, which
// derives them from the recovered pods.

// admitted mirrors one committed admission: the pod the job lives in and
// the binding of its key.
func (r *Router) admitted(mut core.Mutation, pod int) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.jobPods[mut.Job] = pod
	r.idem.Bind(mut)
}

// released mirrors one mutation that took a job out: a release, or the
// repair that found no placement and evicted it.
func (r *Router) released(mut core.Mutation) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	delete(r.jobPods, mut.Job)
	r.idem.Bind(mut)
}

// faulted mirrors one committed fault op, which moves no job: its key.
func (r *Router) faulted(mut core.Mutation) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.idem.Bind(mut)
}

// dispatch admits on the affinity pod first, then on every other pod in
// round-robin order, each planning AND committing inside one hold of its
// own lock (Manager.Allocate*). Only capacity rejections fall through to
// the next pod; any other error is terminal.
//
// Job IDs come off the shared atomic counter. When every pod rejected on
// capacity nothing was staged under the ID, so it is handed back — unless
// a later admission has taken one since, which leaves a gap (pod managers
// max-merge external IDs, so gaps are harmless). Any other error keeps
// the ID burned: a failed fsync wait may have left the record durable.
func (r *Router) dispatch(req core.Mutation) (*core.Allocation, error) {
	id := core.JobID(r.nextID.Add(1))
	opts := []core.CallOption{core.WithJobID(id), core.WithIdemKey(req.IdemKey)}
	start := r.affinity(req.IdemKey)
	var lastErr error
	for i := 0; i < len(r.mgrs); i++ {
		pod := (start + i) % len(r.mgrs)
		var (
			a   *core.Allocation
			err error
		)
		if req.Homog != nil {
			a, err = r.mgrs[pod].AllocateHomog(*req.Homog, opts...)
		} else {
			a, err = r.mgrs[pod].AllocateHetero(*req.Hetero, opts...)
		}
		if err == nil {
			r.admitted(core.Mutation{Op: core.OpAlloc, Job: a.ID, Placement: &a.Placement, IdemKey: req.IdemKey}, pod)
			return a, nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrNoCapacity) {
			return nil, err
		}
	}
	r.nextID.CompareAndSwap(int64(id), int64(id)-1)
	return nil, lastErr
}

// affinity picks the pod an admission tries first: keyed requests hash
// their key (stable across retries, so a retry lands where the original
// committed), unkeyed requests round-robin.
func (r *Router) affinity(key string) int {
	if key != "" {
		h := fnv.New32a()
		h.Write([]byte(key))
		return int(h.Sum32() % uint32(len(r.mgrs)))
	}
	return int((r.rr.Add(1) - 1) % int64(len(r.mgrs)))
}
