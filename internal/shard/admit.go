package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// AllocateHomog admits a homogeneous request through the sharded control
// plane. Strict mode plans on the shadow (bit-identical to the unsharded
// manager) and commits into the owning pod or pods; fast mode plans and
// commits pod-locally.
func (r *Router) AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	co := core.ResolveCallOptions(opts...)
	if r.mode == Fast {
		return r.fastAllocate(co.IdemKey, func(m *core.Manager, callOpts []core.CallOption) (*core.Allocation, error) {
			return m.AllocateHomog(req, callOpts...)
		})
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if a, done, err := r.replayIdemAlloc(co.IdemKey); done {
		return a, err
	}
	mut, err := r.shadow.PlanHomog(req)
	if err != nil {
		return nil, err
	}
	return r.commitStrict(mut, co.IdemKey)
}

// AllocateHetero admits a heterogeneous request through the sharded
// control plane.
func (r *Router) AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	co := core.ResolveCallOptions(opts...)
	if r.mode == Fast {
		return r.fastAllocate(co.IdemKey, func(m *core.Manager, callOpts []core.CallOption) (*core.Allocation, error) {
			return m.AllocateHetero(req, callOpts...)
		})
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if a, done, err := r.replayIdemAlloc(co.IdemKey); done {
		return a, err
	}
	mut, err := r.shadow.PlanHetero(req)
	if err != nil {
		return nil, err
	}
	return r.commitStrict(mut, co.IdemKey)
}

// Release frees an admitted job on every pod holding its state.
func (r *Router) Release(id core.JobID, opts ...core.CallOption) error {
	co := core.ResolveCallOptions(opts...)
	if r.mode == Fast {
		return r.fastRelease(id, co.IdemKey)
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if done, err := r.replayIdemRelease(co.IdemKey, id); done {
		return err
	}
	r.tabMu.Lock()
	pods, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	mut := core.Mutation{Op: core.OpRelease, Job: id, IdemKey: co.IdemKey}
	if len(pods) == 1 {
		// The full mutation — idempotency key included — goes to the
		// owning pod, so the key's durable home is that pod's WAL exactly
		// as in the unsharded manager.
		if err := r.mgrs[pods[0]].CommitExternal(mut); err != nil {
			return err
		}
	} else if err := r.releaseCrossPod(mut, pods); err != nil {
		return err
	}
	if err := r.shadow.CommitExternal(mut); err != nil {
		return fmt.Errorf("shard: shadow diverged on release of job %d: %w", id, err)
	}
	r.tabMu.Lock()
	delete(r.jobPods, id)
	delete(r.crossMut, id)
	if co.IdemKey != "" {
		r.idem[co.IdemKey] = core.IdemState{Op: core.OpRelease, Job: int64(id)}
	}
	r.tabMu.Unlock()
	r.assertConsistent()
	return nil
}

// replayIdemAlloc resolves an allocate call's idempotency key against the
// router table, mirroring the unsharded manager's replay contract: a key
// committed by an alloc replays its placement stub, a key committed by
// any other op conflicts.
func (r *Router) replayIdemAlloc(key string) (*core.Allocation, bool, error) {
	if key == "" {
		return nil, false, nil
	}
	r.tabMu.Lock()
	is, ok := r.idem[key]
	r.tabMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if is.Op != core.OpAlloc {
		return nil, true, fmt.Errorf("%w: key committed by %v", core.ErrIdemConflict, is.Op)
	}
	return is.Allocation(), true, nil
}

// replayIdemRelease resolves a release call's idempotency key, mirroring
// the unsharded Release contract.
func (r *Router) replayIdemRelease(key string, id core.JobID) (bool, error) {
	if key == "" {
		return false, nil
	}
	r.tabMu.Lock()
	is, ok := r.idem[key]
	r.tabMu.Unlock()
	if !ok {
		return false, nil
	}
	if is.Op != core.OpRelease || core.JobID(is.Job) != id {
		return true, fmt.Errorf("%w: key committed by %v of job %d", core.ErrIdemConflict, is.Op, is.Job)
	}
	return true, nil
}

// commitStrict drives one shadow-planned admission to durability: assign
// the next job ID, commit into the owning pod (or two-phase across
// pods), replay the identical mutation into the shadow, then publish the
// routing-table entries. The shadow and the ID high-water mark advance
// only after the pod commit succeeded, so a rejected or failed commit
// leaves the merged view untouched.
func (r *Router) commitStrict(mut core.Mutation, key string) (*core.Allocation, error) {
	mut.Job = core.JobID(r.nextID.Load() + 1)
	mut.IdemKey = key
	pods := r.podsOfPlacement(mut.Placement)
	if len(pods) == 1 {
		if err := r.mgrs[pods[0]].CommitExternal(mut); err != nil {
			return nil, err
		}
	} else if err := r.commitCrossPod(mut, pods); err != nil {
		return nil, err
	}
	if err := r.shadow.CommitExternal(mut); err != nil {
		// The pods accepted a mutation the shadow planned but refuses to
		// apply — the merged view is no longer authoritative.
		return nil, fmt.Errorf("shard: shadow diverged on job %d: %w", mut.Job, err)
	}
	r.nextID.Store(int64(mut.Job))
	r.strict.Add(1)
	r.tabMu.Lock()
	r.jobPods[mut.Job] = pods
	if len(pods) > 1 {
		r.crossMut[mut.Job] = mut
	}
	if key != "" {
		r.idem[key] = core.IdemState{
			Op: core.OpAlloc, Job: int64(mut.Job),
			Placement: mut.Placement.Clone().Entries,
		}
	}
	r.tabMu.Unlock()
	r.assertConsistent()
	return &core.Allocation{ID: mut.Job, Placement: mut.Placement.Clone()}, nil
}

// commitCrossPod runs the two-phase protocol for a placement spanning
// pods: a durable begin intent carrying the ORIGINAL mutation, one
// sub-frame commit per pod (fsyncing in parallel), then the done intent.
// Any pod failure releases the sub-jobs that did commit and marks the
// intent aborted — exactly the resolution recovery would reach from the
// durable state alone.
func (r *Router) commitCrossPod(mut core.Mutation, pods []int) error {
	if err := r.intents.Append(wal.Intent{
		Kind: wal.IntentBegin, Job: mut.Job, Pods: pods, Mut: mut, HasMut: true,
	}); err != nil {
		return err
	}
	subs, perr := partitionAlloc(r.pods, mut, pods)
	if perr == nil {
		errs := make([]error, len(pods))
		var wg sync.WaitGroup
		for i := range pods {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = r.mgrs[pods[i]].CommitExternal(subs[i])
			}(i)
		}
		wg.Wait()
		var first error
		for _, e := range errs {
			if e != nil {
				first = e
				break
			}
		}
		if first == nil {
			// Every pod holds its sub-frame durably. If the done record
			// fails to append the operation is STILL committed: recovery
			// sees the job on every participant and resolves to commit.
			//lint:ignore errflow the done record is an optimisation; recovery resolves the open intent to commit from the participants
			r.intents.Append(wal.Intent{Kind: wal.IntentDone, Job: mut.Job, Commit: true})
			return nil
		}
		for i, p := range pods {
			if errs[i] == nil {
				// Best effort: a pod that cannot release keeps the
				// sub-job; the aborted intent lets recovery retry.
				r.mgrs[p].Release(mut.Job)
			}
		}
		perr = first
	}
	//lint:ignore errflow the abort marker is an optimisation; recovery re-derives the abort from the missing sub-frames
	r.intents.Append(wal.Intent{Kind: wal.IntentDone, Job: mut.Job, Commit: false})
	return perr
}

// releaseCrossPod runs the two-phase release of a cross-pod job. Release
// is idempotent per pod (ErrUnknownJob after a crash-replayed partial
// release is success), so the protocol only needs begin/done bracketing,
// no abort path.
func (r *Router) releaseCrossPod(mut core.Mutation, pods []int) error {
	if err := r.intents.Append(wal.Intent{
		Kind: wal.IntentReleaseBegin, Job: mut.Job, Pods: pods, Mut: mut, HasMut: true,
	}); err != nil {
		return err
	}
	errs := make([]error, len(pods))
	var wg sync.WaitGroup
	for i := range pods {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := r.mgrs[pods[i]].Release(mut.Job)
			if err != nil && !errors.Is(err, core.ErrUnknownJob) {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			// The intent stays open; recovery finishes the release.
			return e
		}
	}
	//lint:ignore errflow the release-done record is an optimisation; an open release intent is simply retried by recovery
	r.intents.Append(wal.Intent{Kind: wal.IntentReleaseDone, Job: mut.Job})
	return nil
}

// partitionAlloc splits one planned cross-pod admission into per-pod
// sub-frames: pod p receives the placement entries on its machines, a
// request covering exactly those VMs, and the contributions on its
// links. Heterogeneous VM indices are renumbered into each sub-request's
// local 0..k-1 space in encounter order. Sub-frames never carry the
// idempotency key — its durable home is the router's intent record, not
// any single pod's WAL.
func partitionAlloc(ps *topology.PodSet, mut core.Mutation, pods []int) ([]core.Mutation, error) {
	subs := make([]core.Mutation, len(pods))
	for i, p := range pods {
		var entries []core.PlacementEntry
		var demands []stats.Normal
		n := 0
		for _, e := range mut.Placement.Entries {
			if ps.Of(e.Machine) != p {
				continue
			}
			ce := core.PlacementEntry{Machine: e.Machine, Count: e.Count}
			if e.VMs != nil {
				if mut.Hetero == nil {
					return nil, fmt.Errorf("shard: homogeneous placement lists VMs on machine %d", e.Machine)
				}
				ce.VMs = make([]int, len(e.VMs))
				for j, vm := range e.VMs {
					if vm < 0 || vm >= len(mut.Hetero.Demands) {
						return nil, fmt.Errorf("shard: placement references VM %d of %d", vm, len(mut.Hetero.Demands))
					}
					demands = append(demands, mut.Hetero.Demands[vm])
					ce.VMs[j] = len(demands) - 1
				}
			}
			n += e.Count
			entries = append(entries, ce)
		}
		sub := core.Mutation{Op: core.OpAlloc, Job: mut.Job, Placement: &core.Placement{Entries: entries}}
		switch {
		case mut.Homog != nil:
			hr, err := core.NewHomogeneous(n, mut.Homog.Demand)
			if err != nil {
				return nil, fmt.Errorf("shard: pod %d sub-request: %w", p, err)
			}
			sub.Homog = &hr
		case mut.Hetero != nil:
			hh, err := core.NewHeterogeneous(demands)
			if err != nil {
				return nil, fmt.Errorf("shard: pod %d sub-request: %w", p, err)
			}
			sub.Hetero = &hh
		default:
			return nil, errors.New("shard: alloc mutation carries no request")
		}
		for _, c := range mut.Contribs {
			if ps.OfLink(c.Link) == p {
				sub.Contribs = append(sub.Contribs, c)
			}
		}
		subs[i] = sub
	}
	return subs, nil
}

// fastAllocate is the fast-mode admission driver: router-level
// idempotency arbitration (so duplicate keys racing into different pods
// collapse to one job), then pod-local plan-and-commit with affinity
// plus round-robin fallback.
//
// A racer that loses the claim receives the first caller's settled
// outcome — including its error. The unsharded manager would re-plan
// after a failed keyed attempt; fast mode trades that retry for never
// blocking admissions on a sibling pod's planning (see docs/SHARDING.md).
func (r *Router) fastAllocate(key string, alloc func(m *core.Manager, opts []core.CallOption) (*core.Allocation, error)) (*core.Allocation, error) {
	var c *claim
	if key != "" {
		r.tabMu.Lock()
		if is, ok := r.idem[key]; ok {
			r.tabMu.Unlock()
			if is.Op != core.OpAlloc {
				return nil, fmt.Errorf("%w: key committed by %v", core.ErrIdemConflict, is.Op)
			}
			return is.Allocation(), nil
		}
		if other, ok := r.claims[key]; ok {
			r.tabMu.Unlock()
			<-other.done
			if other.err != nil {
				return nil, other.err
			}
			return &core.Allocation{ID: other.res.ID, Placement: other.res.Placement.Clone()}, nil
		}
		c = &claim{done: make(chan struct{})}
		r.claims[key] = c
		r.tabMu.Unlock()
	}
	a, err := r.fastDispatch(key, alloc)
	if c != nil {
		c.res, c.err = a, err
		r.tabMu.Lock()
		delete(r.claims, key)
		r.tabMu.Unlock()
		close(c.done)
	}
	return a, err
}

// fastDispatch tries the affinity pod first, then every other pod in
// round-robin order. Only capacity rejections fall through to the next
// pod; any other error is terminal. Job IDs come off the shared atomic
// counter, so a rejected admission burns its ID — pod managers max-merge
// external IDs, which keeps gaps harmless.
func (r *Router) fastDispatch(key string, alloc func(m *core.Manager, opts []core.CallOption) (*core.Allocation, error)) (*core.Allocation, error) {
	id := core.JobID(r.nextID.Add(1))
	opts := []core.CallOption{core.WithJobID(id)}
	if key != "" {
		opts = append(opts, core.WithIdemKey(key))
	}
	start := r.affinity(key)
	var lastErr error
	for i := 0; i < len(r.mgrs); i++ {
		pod := (start + i) % len(r.mgrs)
		a, err := alloc(r.mgrs[pod], opts)
		if err == nil {
			r.tabMu.Lock()
			r.jobPods[a.ID] = []int{pod}
			if key != "" {
				r.idem[key] = core.IdemState{
					Op: core.OpAlloc, Job: int64(a.ID),
					Placement: a.Placement.Clone().Entries,
				}
			}
			r.tabMu.Unlock()
			return a, nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrNoCapacity) {
			return nil, err
		}
	}
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

// fastRelease releases a pod-local job in fast mode.
func (r *Router) fastRelease(id core.JobID, key string) error {
	r.tabMu.Lock()
	if key != "" {
		if is, ok := r.idem[key]; ok {
			r.tabMu.Unlock()
			if is.Op != core.OpRelease || core.JobID(is.Job) != id {
				return fmt.Errorf("%w: key committed by %v of job %d", core.ErrIdemConflict, is.Op, is.Job)
			}
			return nil
		}
	}
	pods, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	var opts []core.CallOption
	if key != "" {
		opts = append(opts, core.WithIdemKey(key))
	}
	if err := r.mgrs[pods[0]].Release(id, opts...); err != nil {
		return err
	}
	r.tabMu.Lock()
	delete(r.jobPods, id)
	if key != "" {
		r.idem[key] = core.IdemState{Op: core.OpRelease, Job: int64(id)}
	}
	r.tabMu.Unlock()
	return nil
}
