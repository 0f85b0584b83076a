package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// DefaultMaxSeconds bounds a scenario's simulated time as a runaway guard.
const DefaultMaxSeconds = 2_000_000

// ErrTimeLimit reports that a scenario exceeded its simulated-time budget,
// which indicates a stuck workload (e.g. a head-of-line job that can never
// be placed).
var ErrTimeLimit = errors.New("sim: simulated time limit exceeded")

// Config parameterizes a simulation scenario.
type Config struct {
	Topo        *topology.Topology
	Eps         float64 // risk factor for the probabilistic guarantee
	Abstraction Abstraction
	Policy      core.Policy          // zero: MinMaxOccupancy
	HeteroAlgo  core.HeteroAlgorithm // zero: HeteroSubstring
	MaxSeconds  int                  // zero: DefaultMaxSeconds
	NICCap      float64              // per-VM line rate; zero: the slowest machine link
	// BurstSeconds sizes the rate limiters' burst allowance as
	// cap * BurstSeconds (Mb). Zero reproduces the paper's hard per-second
	// cap; positive values let rate-limited VMs briefly exceed their
	// reservation using credit banked while idle.
	BurstSeconds float64
	// MaxWaitSeconds, when positive, turns immediate online rejection into
	// a bounded admission queue: a job that cannot be placed on arrival
	// waits up to this long (retried whenever capacity frees) before it is
	// rejected. Zero reproduces the paper's reject-on-arrival policy.
	MaxWaitSeconds int
	// Failures injects machine failures: at each failure's second the
	// machine goes offline (no further VMs are placed there) and every job
	// with a VM on it is killed — or repaired, with Repair set — and
	// counted in the result's FailedJobs.
	Failures []MachineFailure
	// FailureModel, when non-nil, additionally injects seeded random
	// machine failures and restores (exponential MTBF/MTTR per machine).
	FailureModel *FailureModel
	// Repair switches the response to failures from kill to repair: each
	// displaced job is re-placed through the manager's pinned allocation
	// DP (surviving VMs stay put) and keeps running; only jobs no
	// placement can save are killed. See the result's Failures report.
	Repair bool
	// Recorder, when non-nil, receives a JSONL event stream of the run
	// (admissions, completions, failures, periodic snapshots).
	Recorder *trace.Recorder
}

// MachineFailure schedules one machine failure.
type MachineFailure struct {
	At      int // simulated second
	Machine topology.NodeID
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Policy == 0 {
		cfg.Policy = core.MinMaxOccupancy
	}
	if cfg.HeteroAlgo == 0 {
		cfg.HeteroAlgo = core.HeteroSubstring
	}
	if cfg.MaxSeconds == 0 {
		cfg.MaxSeconds = DefaultMaxSeconds
	}
	if cfg.Abstraction == 0 {
		cfg.Abstraction = SVC
	}
	return cfg
}

// engine advances a set of running jobs through simulated seconds.
type engine struct {
	cfg    Config
	topo   *topology.Topology
	mgr    *core.Manager
	solver *maxMinSolver
	nicCap float64
	now    int
	jobs   []*runningJob // admission order; completed jobs are removed

	completedTimes []float64 // per-job running time (completion - start)
	netBoundJobs   int       // completed jobs whose network finished after compute

	pendingFailures []MachineFailure // sorted by At
	injector        *failureInjector // nil without a FailureModel
	failedJobs      int
	frep            FailureReport
	repairTotal     time.Duration
	repairCount     int

	// Congestion accounting: how often a directed link's offered demand
	// exceeded its capacity — the realized counterpart of the outage
	// probability the admission condition (paper Eq. 1) bounds by eps.
	offered           []float64 // scratch: per directed link offered load
	active            []bool    // scratch: link carried a flow this step
	touched           []dirLink // scratch: links active this step
	congestedLinkSecs int64
	activeLinkSecs    int64
}

func newEngine(cfg Config) (*engine, error) {
	if cfg.Topo == nil {
		return nil, errors.New("sim: config needs a topology")
	}
	mgr, err := core.NewManager(cfg.Topo, cfg.Eps,
		core.WithPolicy(cfg.Policy), core.WithHeteroAlgorithm(cfg.HeteroAlgo))
	if err != nil {
		return nil, err
	}
	nicCap := cfg.NICCap
	if nicCap == 0 {
		nicCap = math.Inf(1)
		for _, m := range cfg.Topo.Machines() {
			if cfg.Topo.Node(m).Parent == topology.None {
				continue // a machine-only topology has no NIC bottleneck
			}
			if c := cfg.Topo.LinkCap(m); c < nicCap {
				nicCap = c
			}
		}
	}
	failures := make([]MachineFailure, len(cfg.Failures))
	copy(failures, cfg.Failures)
	sort.Slice(failures, func(i, j int) bool { return failures[i].At < failures[j].At })
	for _, f := range failures {
		if f.Machine < 0 || int(f.Machine) >= cfg.Topo.Len() || !cfg.Topo.Node(f.Machine).IsMachine() {
			return nil, fmt.Errorf("sim: failure targets node %d, which is not a machine", f.Machine)
		}
	}
	var injector *failureInjector
	if cfg.FailureModel != nil {
		if err := cfg.FailureModel.validate(); err != nil {
			return nil, err
		}
		injector = newFailureInjector(cfg.Topo, *cfg.FailureModel)
	}
	return &engine{
		cfg:             cfg,
		topo:            cfg.Topo,
		mgr:             mgr,
		solver:          newMaxMinSolver(cfg.Topo),
		nicCap:          nicCap,
		offered:         make([]float64, cfg.Topo.Len()*2),
		active:          make([]bool, cfg.Topo.Len()*2),
		pendingFailures: failures,
		injector:        injector,
	}, nil
}

// tryStart admits a job; it returns false (and leaves no state behind) when
// the network manager rejects it.
func (e *engine) tryStart(spec JobSpec) (bool, error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	var (
		alloc     *core.Allocation
		vmMachine []topology.NodeID
		err       error
	)
	if spec.Hetero != nil {
		clamped := make([]stats.Normal, len(spec.Hetero))
		for i, p := range spec.Hetero {
			clamped[i] = ClampProfile(p, e.nicCap)
		}
		req, rerr := core.NewHeterogeneous(clamped)
		if rerr != nil {
			return false, rerr
		}
		alloc, err = e.mgr.AllocateHetero(req)
		if err == nil {
			vmMachine = make([]topology.NodeID, spec.N)
			for _, entry := range alloc.Placement.Entries {
				for _, vm := range entry.VMs {
					vmMachine[vm] = entry.Machine
				}
			}
		}
	} else {
		req, rerr := e.abstractionFor(spec).request(spec, e.nicCap)
		if rerr != nil {
			return false, rerr
		}
		alloc, err = e.mgr.AllocateHomog(req)
		if err == nil {
			vmMachine = make([]topology.NodeID, 0, spec.N)
			for _, entry := range alloc.Placement.Entries {
				for i := 0; i < entry.Count; i++ {
					vmMachine = append(vmMachine, entry.Machine)
				}
			}
		}
	}
	if err != nil {
		if errors.Is(err, core.ErrNoCapacity) {
			return false, nil
		}
		return false, err
	}

	onMachines := make(map[topology.NodeID]bool, len(alloc.Placement.Entries))
	for _, entry := range alloc.Placement.Entries {
		onMachines[entry.Machine] = true
	}
	job := &runningJob{
		spec:        spec,
		allocID:     alloc.ID,
		start:       e.now,
		computeDone: e.now + spec.ComputeSeconds,
		netDone:     e.now,
		rng:         stats.NewRand(spec.Seed),
		machines:    onMachines,
	}
	job.flows = e.buildFlows(spec, vmMachine)
	for _, f := range job.flows {
		if f.remaining > 0 {
			job.live++
		} else {
			f.done = true
		}
	}
	e.jobs = append(e.jobs, job)
	e.cfg.Recorder.Record(trace.Event{
		Time: e.now, Kind: trace.KindAdmit,
		Job: spec.ID, VMs: spec.N, Machines: len(alloc.Placement.Entries),
	})
	return true, nil
}

// abstractionFor returns the abstraction a job is admitted under: its own
// override when set, the scenario default otherwise.
func (e *engine) abstractionFor(spec JobSpec) Abstraction {
	if spec.Abstraction != 0 {
		return spec.Abstraction
	}
	return e.cfg.Abstraction
}

// buildFlows lays the job's ring of task-to-task flows over its placement:
// task i sends one flow of FlowMbits to task (i+1) mod N, so every task is
// the source of one flow and the destination of another.
func (e *engine) buildFlows(spec JobSpec, vmMachine []topology.NodeID) []*jobFlow {
	if spec.N < 2 || spec.FlowMbits == 0 {
		return nil // a single task, or a pure-compute job, moves no data
	}
	flows := make([]*jobFlow, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		src := vmMachine[i]
		dst := vmMachine[(i+1)%spec.N]
		profile := spec.Profile
		if spec.Hetero != nil {
			profile = spec.Hetero[i]
		}
		var demand stats.Dist = profile
		switch {
		case spec.HeteroDists != nil:
			demand = spec.HeteroDists[i]
		case spec.DemandDist != nil && spec.Hetero == nil:
			demand = spec.DemandDist
		}
		cap := e.abstractionFor(spec).rateCap(profile, e.nicCap)
		if spec.Hetero != nil {
			cap = math.Inf(1) // stochastic hetero abstractions are not rate limited
		}
		limiter := Unlimited()
		if !math.IsInf(cap, 1) {
			var err error
			limiter, err = NewTokenBucket(cap, cap*e.cfg.BurstSeconds)
			if err != nil {
				// cap > 0 by construction (ClampProfile keeps mu >= 0 and
				// the abstractions return positive reservations), so this
				// is unreachable; fall back to an unlimited flow.
				limiter = Unlimited()
			}
		}
		f := &jobFlow{
			remaining: spec.FlowMbits,
			demand:    demand,
			limiter:   limiter,
		}
		up, down := e.topo.Path(src, dst)
		for _, l := range up {
			f.sf.links = append(f.sf.links, upDir(l))
		}
		for _, l := range down {
			f.sf.links = append(f.sf.links, downDir(l))
		}
		flows = append(flows, f)
	}
	return flows
}

// applyFailures processes every failure and restore whose time has
// arrived: scheduled failures from Config.Failures, plus random failures
// and restores from the MTBF/MTTR model. The jobs a failure displaces are
// killed, or — with Config.Repair — sent through the manager's repair path
// and only killed when no placement can save them.
func (e *engine) applyFailures() error {
	var downed []topology.NodeID
	for len(e.pendingFailures) > 0 && e.pendingFailures[0].At <= e.now {
		downed = append(downed, e.pendingFailures[0].Machine)
		e.pendingFailures = e.pendingFailures[1:]
	}
	if e.injector != nil {
		restored, failed := e.injector.due(e.now)
		for _, m := range restored {
			e.mgr.RestoreMachine(m)
			e.frep.MachineRestores++
			e.cfg.Recorder.Record(trace.Event{Time: e.now, Kind: trace.KindMachineRestore, Machines: int(m)})
		}
		downed = append(downed, failed...)
	}
	if len(downed) == 0 {
		return nil
	}
	hit := make(map[topology.NodeID]bool, len(downed))
	for _, m := range downed {
		if hit[m] {
			continue
		}
		hit[m] = true
		e.mgr.FailMachine(m)
		e.frep.MachineFailures++
		e.cfg.Recorder.Record(trace.Event{Time: e.now, Kind: trace.KindMachineFail, Machines: int(m)})
	}
	if e.cfg.Repair {
		return e.repairAffected()
	}
	kept := e.jobs[:0]
	for _, j := range e.jobs {
		lost := false
		for m := range hit {
			if j.machines[m] {
				lost = true
				break
			}
		}
		if !lost {
			kept = append(kept, j)
			continue
		}
		if err := e.mgr.Release(j.allocID); err != nil {
			return fmt.Errorf("sim: fail job %d: %w", j.spec.ID, err)
		}
		e.failedJobs++
		e.cfg.Recorder.Record(trace.Event{Time: e.now, Kind: trace.KindJobFail, Job: j.spec.ID})
	}
	e.jobs = kept
	return nil
}

// step advances the simulation by one second: draw fresh demands, share the
// network max-min fairly, transfer, and release completed jobs. It returns
// the specs of the jobs that completed during this second.
func (e *engine) step() ([]JobSpec, error) {
	if err := e.applyFailures(); err != nil {
		return nil, err
	}
	// Draw this second's data generation rate for every live flow and
	// apply the hypervisor rate cap.
	solverFlows := make([]*solverFlow, 0, 64)
	for _, j := range e.jobs {
		for _, f := range j.flows {
			if f.done {
				continue
			}
			demand := math.Min(math.Max(0, f.demand.Sample(j.rng)), e.nicCap)
			f.sf.bound = math.Min(demand, f.limiter.Limit(1))
			solverFlows = append(solverFlows, &f.sf)
			for _, l := range f.sf.links {
				if !e.active[l] {
					e.active[l] = true
					e.touched = append(e.touched, l)
				}
				e.offered[l] += f.sf.bound
			}
		}
	}
	for _, l := range e.touched {
		e.activeLinkSecs++
		if e.offered[l] > e.solver.capacity[l]+1e-9 {
			e.congestedLinkSecs++
		}
		e.offered[l] = 0
		e.active[l] = false
	}
	e.touched = e.touched[:0]
	e.solver.Solve(solverFlows)

	// Transfer for one second.
	for _, j := range e.jobs {
		for _, f := range j.flows {
			if f.done {
				continue
			}
			f.remaining -= f.sf.rate
			f.limiter.Consume(f.sf.rate, 1)
			if f.remaining <= 1e-9 {
				f.remaining = 0
				f.done = true
				j.live--
				if j.live == 0 {
					j.netDone = e.now + 1
				}
			}
		}
	}
	e.now++

	// Collect completions.
	var completed []JobSpec
	remaining := e.jobs[:0]
	for _, j := range e.jobs {
		if !j.finished(e.now) {
			remaining = append(remaining, j)
			continue
		}
		if err := e.mgr.Release(j.allocID); err != nil {
			return nil, fmt.Errorf("sim: release job %d: %w", j.spec.ID, err)
		}
		e.completedTimes = append(e.completedTimes, float64(j.completionTime()-j.start))
		if j.netDone > j.computeDone {
			e.netBoundJobs++
		}
		completed = append(completed, j.spec)
		e.cfg.Recorder.Record(trace.Event{
			Time: e.now, Kind: trace.KindComplete,
			Job: j.spec.ID, Took: j.completionTime() - j.start,
		})
	}
	e.jobs = remaining
	if e.cfg.Recorder.WantSnapshot(e.now) {
		e.cfg.Recorder.Record(trace.Event{
			Time: e.now, Kind: trace.KindSnapshot,
			Running: len(e.jobs), MaxOcc: e.mgr.MaxOccupancy(),
		})
	}
	return completed, nil
}

// running returns the number of admitted, incomplete jobs.
func (e *engine) running() int { return len(e.jobs) }

// congestionRate returns the fraction of (active link, second) pairs whose
// offered demand exceeded the link capacity. Active means the link carried
// at least one unfinished flow that second. This realized outage frequency
// is what the probabilistic guarantee Pr(sum B_i > S_L) < eps bounds; it
// runs below eps because ring traffic only loads each link with a subset of
// the VMs the reservation accounts for.
func (e *engine) congestionRate() float64 {
	if e.activeLinkSecs == 0 {
		return 0
	}
	return float64(e.congestedLinkSecs) / float64(e.activeLinkSecs)
}
