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
// plane; see admit.
func (r *Router) AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	return r.admit(core.Mutation{Op: core.OpAlloc, Homog: &req}, opts)
}

// AllocateHetero admits a heterogeneous request through the sharded
// control plane; see admit.
func (r *Router) AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	return r.admit(core.Mutation{Op: core.OpAlloc, Hetero: &req}, opts)
}

// admit is the admission driver of both entry points and both modes. req
// carries the request the way core's own driver takes it: the op and one
// of Homog/Hetero. Replaying a bound key and mirroring the outcome into
// the router's books are shared; the admission in between is the one step
// the modes do differently (commitStrict, fastDispatch), and claims are
// fast mode's alone: under opMu no two strict admissions are in flight.
//
// A fast-mode racer that loses the claim receives the first caller's
// settled outcome — including its error. The unsharded manager would
// re-plan after a failed keyed attempt; fast mode trades that retry for
// never blocking admissions on a sibling pod's planning (see
// docs/SHARDING.md).
func (r *Router) admit(req core.Mutation, opts []core.CallOption) (*core.Allocation, error) {
	req.IdemKey = core.ResolveCallOptions(opts...).IdemKey
	if r.mode == Strict {
		r.opMu.Lock()
		defer r.opMu.Unlock()
	}
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
		if !bound && r.mode == Fast {
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
	var a *core.Allocation
	if r.mode == Strict {
		a, err = r.commitStrict(req)
	} else {
		a, err = r.fastDispatch(req)
	}
	if mine != nil {
		mine.res, mine.err = a, err
		r.tabMu.Lock()
		delete(r.claims, req.IdemKey)
		r.tabMu.Unlock()
		close(mine.done)
	}
	return a, err
}

// Release frees an admitted job on every pod holding its state — one
// path for both modes, which differ only in taking opMu and replaying
// into the shadow.
func (r *Router) Release(id core.JobID, opts ...core.CallOption) error {
	mut := core.Mutation{Op: core.OpRelease, Job: id, IdemKey: core.ResolveCallOptions(opts...).IdemKey}
	if r.mode == Strict {
		r.opMu.Lock()
		defer r.opMu.Unlock()
	}
	r.tabMu.Lock()
	_, bound, err := r.idem.Replay(mut.IdemKey, core.OpRelease, id)
	pods, ok := r.jobPods[id]
	r.tabMu.Unlock()
	if bound {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownJob, id)
	}
	if len(pods) == 1 {
		// The owning pod journals the full mutation — idempotency key
		// included — so the key's durable home is that pod's WAL exactly
		// as in the unsharded manager. Manager.Release and not
		// CommitExternal: fast-mode racers under one key get here
		// together, and the pod's own table answers the loser as the
		// unsharded manager would (nil, not ErrUnknownJob).
		err = r.mgrs[pods[0]].Release(id, core.WithIdemKey(mut.IdemKey))
	} else {
		err = r.releaseCrossPod(mut, pods)
	}
	if err != nil {
		return err
	}
	if r.mode == Strict {
		if err := r.shadow.CommitExternal(mut); err != nil {
			return fmt.Errorf("shard: shadow diverged on release of job %d: %w", id, err)
		}
	}
	r.released(mut)
	r.assertConsistent()
	return nil
}

// The router's books — jobPods, crossMut, idem — have four writers: the
// three below, each mirroring one settled commit whether it settled live,
// in the replayed intent log (foldIntents) or in doubt (resolveInDoubt),
// and rebuildTables, which derives the rest from the recovered pods.

// admitted mirrors one committed admission: where the job lives, the
// original un-partitioned mutation if that is more than one pod, and the
// binding of its key (for a cross-pod job the router's table is the only
// one holding it: its durable home is the intent log, not any pod WAL).
func (r *Router) admitted(mut core.Mutation, pods []int) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.jobPods[mut.Job] = pods
	if len(pods) > 1 {
		r.crossMut[mut.Job] = mut
	}
	r.idem.Bind(mut)
}

// released mirrors one mutation that took a job out: a release, or the
// repair that found no placement and evicted it.
func (r *Router) released(mut core.Mutation) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	delete(r.jobPods, mut.Job)
	delete(r.crossMut, mut.Job)
	r.idem.Bind(mut)
}

// faulted mirrors one committed fault op, which moves no job: its key.
func (r *Router) faulted(mut core.Mutation) {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.idem.Bind(mut)
}

// commitStrict is strict mode's admission: plan on the shadow — the
// merged view, so the placement is the unsharded manager's — assign the
// next job ID, commit the plan into the owning pod (or two-phase across
// pods) through CommitExternal, which opMu makes safe by keeping every
// other mutation out between plan and commit, replay the identical
// mutation into the shadow, then publish the routing-table entries. The
// shadow and the ID high-water mark advance only after the pod commit
// succeeded, so a rejected or failed commit leaves the merged view
// untouched.
func (r *Router) commitStrict(req core.Mutation) (*core.Allocation, error) {
	var (
		mut core.Mutation
		err error
	)
	if req.Homog != nil {
		mut, err = r.shadow.PlanHomog(*req.Homog)
	} else {
		mut, err = r.shadow.PlanHetero(*req.Hetero)
	}
	if err != nil {
		return nil, err
	}
	mut.Job = core.JobID(r.nextID.Load() + 1)
	mut.IdemKey = req.IdemKey
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
	r.admitted(mut, pods)
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

// fastDispatch is fast mode's admission: the affinity pod first, then
// every other pod in round-robin order, each planning AND committing
// inside one hold of its own lock (Manager.Allocate*) — with no opMu, a
// PlanHomog followed by CommitExternal would open a window in which a
// sibling admission lands and Eq. 4 is not re-checked. Only capacity
// rejections fall through to the next pod; any other error is terminal.
// Job IDs come off the shared atomic counter, so a rejected admission
// burns its ID — pod managers max-merge external IDs, which keeps gaps
// harmless.
func (r *Router) fastDispatch(req core.Mutation) (*core.Allocation, error) {
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
			r.admitted(core.Mutation{Op: core.OpAlloc, Job: a.ID, Placement: &a.Placement, IdemKey: req.IdemKey}, []int{pod})
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
