// Package shard partitions the control plane at the aggregation layer:
// one pod-local core.Manager + write-ahead journal per aggregation
// subtree, coordinated by a Router. Pods partition every link and
// machine of the tree (a link belongs to the pod of its child endpoint,
// so even the aggregation uplinks into the core are pod-owned), which
// makes the per-pod ledgers disjoint shards of the unsharded ledger:
// merging them back together is field-by-field copying, never summing.
//
// Admissions that place entirely inside one pod commit only that pod's
// WAL; independent pods fsync in parallel, which is where the throughput
// scaling comes from. A placement spanning pods runs a two-phase commit
// driven by the router's own intent log (wal.IntentLog): a durable begin
// record before any pod commits, per-pod sub-frames, then a done record.
// Crash recovery replays each pod's WAL independently and resolves
// in-doubt cross-pod admissions deterministically: commit iff every
// participant pod has the job, abort (and release the partial commits)
// otherwise.
//
// The router runs in one of two modes:
//
//   - Strict: every admission is planned on a shadow manager holding the
//     merged (unsharded) view and committed into the owning pods, and the
//     shadow replays the identical mutation. Placements, rejections, and
//     per-pod journal contents are bit-identical to an unsharded
//     manager fed the same request sequence — the differential baseline
//     and the semantics-preserving default.
//   - Fast: admissions plan AND commit pod-locally (pod affinity with
//     round-robin fallback), so independent pods admit concurrently with
//     no shared lock; requests no single pod can host are rejected. This
//     trades cross-pod placements for linear fsync scaling.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Mode selects how the router plans admissions.
type Mode int

const (
	// Strict is the semantics-preserving mode: central planning on the
	// shadow manager, pod-local or two-phase commit, bit-identical to the
	// unsharded manager.
	Strict Mode = iota + 1
	// Fast is the scale-out mode: pod-local planning and commit, no
	// cross-pod placements.
	Fast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses "strict" (also the empty string, the default) or "fast".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "strict":
		return Strict, nil
	case "fast":
		return Fast, nil
	default:
		return 0, fmt.Errorf("shard: unknown mode %q (want strict or fast)", s)
	}
}

// ErrShardCount reports a -shards value that does not match the
// topology's pod partition.
var ErrShardCount = errors.New("shard: shard count must equal the number of aggregation subtrees")

// ErrCrossPodRepair reports a repair request for a job placed across
// pods. Repair planning is pod-scoped (a pod only moves VMs it owns), so
// cross-pod jobs are not repairable; release and re-admit instead. It is
// the client's error, not the server's: httpapi answers 409 by the core
// sentinel it wraps.
var ErrCrossPodRepair = fmt.Errorf("%w: shard: a repair is planned inside one pod", core.ErrNotRepairable)

// Options configures Open.
type Options struct {
	// Mode defaults to Strict.
	Mode Mode
	// MgrOpts are applied to every pod manager (and the strict-mode
	// shadow): policy, hetero algorithm, admission mode.
	MgrOpts []core.ManagerOption
	// NoSync disables fsyncs on the pod WALs and the intent log — tests
	// and benchmarks only.
	NoSync bool
	// SyncDelay replaces the pod WALs' physical fsync with a fixed sleep
	// (wal.WithSyncDelay): a simulated dedicated log device per pod.
	// Benchmarks only; see wal.WithSyncDelay.
	SyncDelay time.Duration
	// SnapshotEvery sets the pod WALs' checkpoint cadence (0 = default).
	SnapshotEvery int
}

// Router is the sharded control plane: K pod-local managers with
// independent WALs, an intent log for cross-pod operations, and (in
// strict mode) a shadow manager holding the merged view.
type Router struct {
	topo *topology.Topology
	eps  float64
	pods *topology.PodSet
	mode Mode
	dir  string

	mgrs     []*core.Manager
	journals []*wal.Journal
	intents  *wal.IntentLog

	// opMu serializes strict-mode operations end to end: plan on the
	// shadow, commit into pods, replay into the shadow. Fast mode never
	// takes it on the admission path.
	opMu   sync.Mutex
	shadow *core.Manager

	// tabMu guards the routing tables below.
	tabMu sync.Mutex
	// jobPods maps each live job to the pods holding its state; more than
	// one entry marks a cross-pod job.
	jobPods map[core.JobID][]int
	// crossMut holds the ORIGINAL un-partitioned mutation of every live
	// cross-pod job — the source MergedState reconstructs the job from.
	crossMut map[core.JobID]core.Mutation
	// idem is the router-level union of the pods' durable idempotency
	// bindings plus the cross-pod ones (whose durable home is the intent
	// log); rebuilt on recovery from those same sources. It answers every
	// repeated key before a pod or the shadow sees the call.
	idem core.IdemTable
	// claims tracks in-flight keyed fast-mode admissions so duplicate
	// keys racing into different pods collapse to one job.
	claims map[string]*claim

	nextID atomic.Int64 // highest committed job ID
	rr     atomic.Int64 // fast-mode round-robin cursor
	strict atomic.Int64 // strict-mode admissions committed (AdmissionStats.Locked)
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
// wal.Recover per pod under dir/pod-<i>, the intent log at
// dir/intents.log, and deterministic resolution of every in-doubt
// cross-pod operation the intent log holds. shards must equal the
// topology's pod count — the partition is structural, not a tuning knob.
func Open(dir string, topo *topology.Topology, eps float64, shards int, opts Options) (*Router, error) {
	pods := topology.NewPods(topo)
	if shards != pods.Count() {
		return nil, fmt.Errorf("%w: shards = %d, topology has %d", ErrShardCount, shards, pods.Count())
	}
	mode := opts.Mode
	if mode == 0 {
		mode = Strict
	}

	r := &Router{
		topo:     topo,
		eps:      eps,
		pods:     pods,
		mode:     mode,
		dir:      dir,
		jobPods:  make(map[core.JobID][]int),
		crossMut: make(map[core.JobID]core.Mutation),
		idem:     make(core.IdemTable),
		claims:   make(map[string]*claim),
	}

	// Replay the intent log first: its records classify every cross-pod
	// job the pod WALs are about to resurrect.
	var iopts []wal.IntentOption
	if opts.NoSync {
		iopts = append(iopts, wal.IntentNoSync())
	}
	intents, replayed, err := wal.OpenIntentLog(dir, iopts...)
	if err != nil {
		return nil, err
	}
	r.intents = intents
	pendingAdm, pendingRel := r.foldIntents(replayed)

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
		mgr, j, rerr := wal.Recover(podDir(dir, i), topo, eps, mgrOpts, wopts...)
		if rerr != nil {
			r.closePartial()
			return nil, fmt.Errorf("shard: pod %d: %w", i, rerr)
		}
		r.mgrs[i] = mgr
		r.journals[i] = j
	}

	if err := r.resolveInDoubt(pendingAdm, pendingRel); err != nil {
		r.closePartial()
		return nil, err
	}
	if err := r.rebuildTables(); err != nil {
		r.closePartial()
		return nil, err
	}

	if mode == Strict {
		shadow, serr := core.NewManagerFromState(topo, eps, r.MergedState(), opts.MgrOpts...)
		if serr != nil {
			r.closePartial()
			return nil, fmt.Errorf("shard: shadow: %w", serr)
		}
		r.shadow = shadow
	}
	return r, nil
}

// pendingOp is one in-doubt cross-pod operation: its begin record was
// durable but no done record followed.
type pendingOp struct {
	job  core.JobID
	pods []int
	mut  core.Mutation
}

// foldIntents classifies the replayed intent log: completed admissions
// and releases are mirrored into the tables exactly as when they settled
// live, and the begin records with no done record come back as in-doubt
// operations in log order.
func (r *Router) foldIntents(intents []wal.Intent) (pendingAdm, pendingRel []pendingOp) {
	admIdx := make(map[core.JobID]int)
	relIdx := make(map[core.JobID]int)
	for _, in := range intents {
		switch in.Kind {
		case wal.IntentBegin:
			admIdx[in.Job] = len(pendingAdm)
			pendingAdm = append(pendingAdm, pendingOp{job: in.Job, pods: in.Pods, mut: in.Mut})
		case wal.IntentDone:
			i, ok := admIdx[in.Job]
			if !ok {
				continue
			}
			op := pendingAdm[i]
			pendingAdm[i].job = 0 // settled
			delete(admIdx, in.Job)
			if in.Commit {
				r.admitted(op.mut, op.pods)
			}
		case wal.IntentReleaseBegin:
			relIdx[in.Job] = len(pendingRel)
			pendingRel = append(pendingRel, pendingOp{job: in.Job, pods: in.Pods, mut: in.Mut})
		case wal.IntentReleaseDone:
			i, ok := relIdx[in.Job]
			if !ok {
				continue
			}
			op := pendingRel[i]
			pendingRel[i].job = 0 // settled
			delete(relIdx, in.Job)
			r.released(op.mut)
		}
	}
	pendingAdm = compactPending(pendingAdm)
	pendingRel = compactPending(pendingRel)
	return pendingAdm, pendingRel
}

func compactPending(ops []pendingOp) []pendingOp {
	out := ops[:0]
	for _, op := range ops {
		if op.job != 0 {
			out = append(out, op)
		}
	}
	return out
}

// resolveInDoubt settles every begin-without-done operation the intent
// log surfaced, in log order. The rule is deterministic and derived
// solely from durable state: an admission commits iff every participant
// pod holds the job (the crash happened after the last sub-commit),
// otherwise the partial sub-commits are released and the admission
// aborts. An in-doubt release is simply driven to completion — release
// is idempotent per pod once ErrUnknownJob is tolerated.
func (r *Router) resolveInDoubt(pendingAdm, pendingRel []pendingOp) error {
	for _, op := range pendingAdm {
		all := true
		for _, p := range op.pods {
			if !r.mgrs[p].HasJob(op.job) {
				all = false
			}
		}
		if all {
			if err := r.intents.Append(wal.Intent{Kind: wal.IntentDone, Job: op.job, Commit: true}); err != nil {
				return err
			}
			r.admitted(op.mut, op.pods)
			continue
		}
		for _, p := range op.pods {
			if r.mgrs[p].HasJob(op.job) {
				if err := r.mgrs[p].Release(op.job); err != nil {
					return fmt.Errorf("shard: abort job %d on pod %d: %w", op.job, p, err)
				}
			}
		}
		if err := r.intents.Append(wal.Intent{Kind: wal.IntentDone, Job: op.job, Commit: false}); err != nil {
			return err
		}
	}
	for _, op := range pendingRel {
		for _, p := range op.pods {
			err := r.mgrs[p].Release(op.job)
			if err != nil && !errors.Is(err, core.ErrUnknownJob) {
				return fmt.Errorf("shard: finish release of job %d on pod %d: %w", op.job, p, err)
			}
		}
		if err := r.intents.Append(wal.Intent{Kind: wal.IntentReleaseDone, Job: op.job}); err != nil {
			return err
		}
		r.released(op.mut)
	}
	return nil
}

// rebuildTables derives jobPods, the idempotency union, and the job ID
// high-water mark from the recovered pod states. jobPods is the pods'
// alone: what the intent log's settled admissions noted is derived again
// with the rest.
func (r *Router) rebuildTables() error {
	clear(r.jobPods)
	next := int64(0)
	for i, mgr := range r.mgrs {
		st := mgr.ExportState()
		if st.NextID > next {
			next = st.NextID
		}
		for _, js := range st.Jobs {
			id := core.JobID(js.ID)
			r.jobPods[id] = append(r.jobPods[id], i)
		}
		for k, is := range st.Idem {
			r.idem[k] = is
		}
	}
	// Every cross-pod job the intent log knows must have resurfaced from
	// the pod WALs; a mismatch means a pod lost durable state.
	for id := range r.crossMut {
		if len(r.jobPods[id]) < 2 {
			return fmt.Errorf("shard: cross-pod job %d present on %d pods", id, len(r.jobPods[id]))
		}
	}
	r.nextID.Store(next)
	return nil
}

func (r *Router) closePartial() {
	for _, j := range r.journals {
		if j != nil {
			j.Close()
		}
	}
	if r.intents != nil {
		r.intents.Close()
	}
}

// Close closes every pod journal and the intent log.
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
	if r.intents != nil {
		if err := r.intents.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Mode returns the router's planning mode.
func (r *Router) Mode() Mode { return r.mode }

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

// podsOfPlacement returns the sorted distinct pods a placement touches.
func (r *Router) podsOfPlacement(p *core.Placement) []int {
	seen := make(map[int]bool, 2)
	var out []int
	for _, e := range p.Entries {
		pod := r.pods.Of(e.Machine)
		if !seen[pod] {
			seen[pod] = true
			out = append(out, pod)
		}
	}
	sort.Ints(out)
	return out
}
