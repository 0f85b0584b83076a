// Package shard partitions the control plane at the aggregation layer:
// one pod-local core.Manager + write-ahead journal per aggregation
// subtree, coordinated by a Router. Pods partition every link and
// machine of the tree (a link belongs to the pod of its child endpoint,
// so even the aggregation uplinks into the core are pod-owned), which
// makes the per-pod ledgers disjoint shards of the unsharded ledger:
// merging them back together is field-by-field copying, never summing.
//
// Every job lives in exactly one pod. An admission tries its affinity
// pod and spills to the others on a capacity rejection, and each pod
// plans and commits it under one hold of its own lock; releases, fault
// ops and repairs run on the owning pod's manager. Independent pods
// admit and fsync in parallel with no shared lock, which is where the
// throughput scaling comes from; a request no single pod can host is
// rejected.
package shard

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Mode is the type of Options.Mode.
//
// Deprecated: ignored; the router has one mode. It stays until the
// benchmark module stops naming it.
type Mode int

// Fast names the router's one mode.
//
// Deprecated: ignored, as Options.Mode is.
const Fast Mode = 2

// ErrShardCount reports a -shards value that does not match the
// topology's pod partition.
var ErrShardCount = errors.New("shard: shard count must equal the number of aggregation subtrees")

// Options configures Open.
type Options struct {
	// Mode is ignored.
	//
	// Deprecated: the router has one mode.
	Mode Mode
	// MgrOpts are applied to every pod manager: policy, hetero algorithm.
	MgrOpts []core.ManagerOption
	// NoSync disables fsyncs on the pod WALs — tests and benchmarks only.
	NoSync bool
	// SyncDelay replaces the pod WALs' physical fsync with a fixed sleep
	// (wal.WithSyncDelay): a simulated dedicated log device per pod.
	// Benchmarks only; see wal.WithSyncDelay.
	SyncDelay time.Duration
	// SnapshotEvery sets the pod WALs' checkpoint cadence (0 = default).
	SnapshotEvery int
}

// Router is the sharded control plane: K pod-local managers with
// independent WALs and the tables that route a job or a key to its pod.
type Router struct {
	topo *topology.Topology
	eps  float64
	pods *topology.PodSet

	mgrs     []*core.Manager
	journals []*wal.Journal

	// tabMu guards the routing tables below.
	tabMu sync.Mutex
	// jobPods maps each live job to the pod holding it.
	jobPods map[core.JobID]int
	// idem is the union of the pods' durable idempotency bindings, rebuilt
	// on recovery from those same pods. It answers every repeated key
	// before a pod sees the call.
	idem core.IdemTable
	// claims tracks in-flight keyed admissions so duplicate keys racing
	// into different pods collapse to one job.
	claims map[string]*claim

	nextID atomic.Int64 // highest job ID handed out
	rr     atomic.Int64 // round-robin cursor of unkeyed admissions
}

// claim is one in-flight keyed admission: the first caller owns it;
// racers block on done and replay the settled outcome.
type claim struct {
	done chan struct{}
	res  *core.Allocation
	err  error
}

// podDir returns the state directory of pod i.
func podDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("pod-%d", i))
}

// Open recovers (or initializes) a sharded control plane in dir: one
// wal.Recover per pod under dir/pod-<i>. shards must equal the topology's
// pod count — the partition is structural, not a tuning knob. A directory
// whose intents.log holds records (wal.CheckNoIntents) is refused before
// anything in it is opened or created.
func Open(dir string, topo *topology.Topology, eps float64, shards int, opts Options) (*Router, error) {
	pods := topology.NewPods(topo)
	if shards != pods.Count() {
		return nil, fmt.Errorf("%w: shards = %d, topology has %d", ErrShardCount, shards, pods.Count())
	}
	if err := wal.CheckNoIntents(dir); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	r := &Router{
		topo:    topo,
		eps:     eps,
		pods:    pods,
		jobPods: make(map[core.JobID]int),
		idem:    make(core.IdemTable),
		claims:  make(map[string]*claim),
	}
	var wopts []wal.Option
	if opts.NoSync {
		wopts = append(wopts, wal.WithNoSync())
	}
	if opts.SyncDelay > 0 {
		wopts = append(wopts, wal.WithSyncDelay(opts.SyncDelay))
	}
	if opts.SnapshotEvery > 0 {
		wopts = append(wopts, wal.WithSnapshotEvery(opts.SnapshotEvery))
	}
	r.mgrs = make([]*core.Manager, shards)
	r.journals = make([]*wal.Journal, shards)
	for i := 0; i < shards; i++ {
		mgrOpts := append(append([]core.ManagerOption(nil), opts.MgrOpts...),
			core.WithPlanSubtree(pods.Root(i)))
		mgr, j, err := wal.Recover(podDir(dir, i), topo, eps, mgrOpts, wopts...)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard: pod %d: %w", i, err)
		}
		r.mgrs[i] = mgr
		r.journals[i] = j
	}
	if err := r.rebuildTables(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// rebuildTables derives jobPods, the idempotency union, and the job ID
// high-water mark from the recovered pod states. A job held by two pods
// is refused: only the strict-mode routers of older builds split a job
// across pods, and this router can neither route nor release one.
func (r *Router) rebuildTables() error {
	clear(r.jobPods)
	next := int64(0)
	for i, mgr := range r.mgrs {
		st := mgr.ExportState()
		next = max(next, st.NextID)
		for _, js := range st.Jobs {
			id := core.JobID(js.ID)
			if p, dup := r.jobPods[id]; dup {
				return fmt.Errorf("%w: shard: job %d is held by pods %d and %d, a cross-pod job; release it with an older build",
					wal.ErrUnsupportedFormat, id, p, i)
			}
			r.jobPods[id] = i
		}
		maps.Copy(r.idem, st.Idem)
	}
	r.nextID.Store(next)
	return nil
}

// Close closes every pod journal.
func (r *Router) Close() error {
	var first error
	for _, j := range r.journals {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the pod count.
func (r *Router) Shards() int { return len(r.mgrs) }

// Pod exposes pod i's manager for tests and status surfaces. Mutating it
// directly bypasses the router's tables; read-only use only.
func (r *Router) Pod(i int) *core.Manager { return r.mgrs[i] }

// PodJournal exposes pod i's journal (for replication tail/fence wiring).
func (r *Router) PodJournal(i int) *wal.Journal { return r.journals[i] }

// Topology returns the managed topology.
func (r *Router) Topology() *topology.Topology { return r.topo }

// Epsilon returns the risk factor.
func (r *Router) Epsilon() float64 { return r.eps }
