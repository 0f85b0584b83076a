package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// FailureModel injects random machine failures: every machine runs an
// independent alternating renewal process (stats.Renewal, the generator
// the scenario engine's chaos schedule draws from too) with exponentially
// distributed up-times (mean MTBF seconds) and down-times (mean MTTR
// seconds). The stream is seeded, so a failure schedule replays exactly.
type FailureModel struct {
	MTBF float64 // mean seconds between failures, per machine
	MTTR float64 // mean seconds to repair a failed machine
	Seed uint64
}

func (f *FailureModel) validate() error {
	if f.MTBF <= 0 || f.MTTR <= 0 {
		return errors.New("sim: failure model needs MTBF > 0 and MTTR > 0")
	}
	return nil
}

// failureInjector realizes a FailureModel over a topology's machines:
// one stats.Renewal per machine, each on its own child of the seed's
// stream, with the machine's next event drawn ahead.
type failureInjector struct {
	procs []machineProc
}

type machineProc struct {
	*stats.Renewal
	machine topology.NodeID
	at      int  // second of the machine's next event
	fail    bool // whether that event is its failure or its restore
}

func newFailureInjector(topo *topology.Topology, model FailureModel) *failureInjector {
	inj := &failureInjector{}
	rng := stats.NewRand(model.Seed)
	for _, m := range topo.Machines() {
		p := machineProc{Renewal: stats.NewRenewal(rng.Child(), model.MTBF, model.MTTR), machine: m}
		p.at, p.fail = p.Next()
		inj.procs = append(inj.procs, p)
	}
	return inj
}

// due returns the machines whose restore and whose failure has arrived,
// and draws their next events. The engine asks every second and a phase
// lasts at least one, so a machine has at most one event due.
func (inj *failureInjector) due(now int) (restored, failed []topology.NodeID) {
	for i := range inj.procs {
		p := &inj.procs[i]
		if p.at > now {
			continue
		}
		if p.fail {
			failed = append(failed, p.machine)
		} else {
			restored = append(restored, p.machine)
		}
		p.at, p.fail = p.Next()
	}
	return restored, failed
}

// FailureReport aggregates a run's failure and repair activity.
type FailureReport struct {
	MachineFailures int // machines taken down (scheduled + random)
	MachineRestores int // machines brought back by the MTTR process
	// RepairedJobs counts displaced jobs re-placed with the original
	// guarantee intact (the manager's strict pinned-DP path).
	RepairedJobs int
	// DegradedJobs counts repairs that fell back to a relaxed placement
	// with a weakened effective eps.
	DegradedJobs int
	// EvictedJobs counts displaced jobs no placement could save; they are
	// also included in the result's FailedJobs.
	EvictedJobs int
}

// vmMachines recovers the VM index -> machine assignment of a placement:
// heterogeneous entries carry explicit VM indices, homogeneous VMs are
// interchangeable and expanded in entry order.
func vmMachines(spec JobSpec, p *core.Placement) []topology.NodeID {
	if spec.Hetero != nil {
		vmm := make([]topology.NodeID, spec.N)
		for _, entry := range p.Entries {
			for _, vm := range entry.VMs {
				vmm[vm] = entry.Machine
			}
		}
		return vmm
	}
	vmm := make([]topology.NodeID, 0, spec.N)
	for _, entry := range p.Entries {
		for i := 0; i < entry.Count; i++ {
			vmm = append(vmm, entry.Machine)
		}
	}
	return vmm
}

// rebindJob re-lays a repaired job's flows over its new placement,
// carrying over each flow's transfer progress and rate limiter — the
// simulation counterpart of migrating the displaced VMs.
func (e *engine) rebindJob(j *runningJob, p core.Placement) error {
	vmm := vmMachines(j.spec, &p)
	newFlows := e.buildFlows(j.spec, vmm)
	if len(newFlows) != len(j.flows) {
		return fmt.Errorf("sim: repair of job %d rebuilt %d flows, had %d", j.spec.ID, len(newFlows), len(j.flows))
	}
	live := 0
	for i, nf := range newFlows {
		old := j.flows[i]
		nf.remaining, nf.done, nf.limiter = old.remaining, old.done, old.limiter
		if !nf.done {
			live++
		}
	}
	j.flows = newFlows
	j.live = live
	j.machines = make(map[topology.NodeID]bool, len(p.Entries))
	for _, entry := range p.Entries {
		j.machines[entry.Machine] = true
	}
	return nil
}

// repairAffected runs the manager's repair pass over every displaced job
// and applies the outcomes to the running simulation: repaired jobs keep
// transferring over their new placement, evicted jobs are killed.
func (e *engine) repairAffected() error {
	results, err := e.mgr.RepairAll()
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return nil
	}
	byAlloc := make(map[core.JobID]*runningJob, len(e.jobs))
	for _, j := range e.jobs {
		byAlloc[j.allocID] = j
	}
	evicted := make(map[core.JobID]bool)
	for _, res := range results {
		j := byAlloc[res.Job]
		if j == nil {
			continue
		}
		e.repairTotal += res.Elapsed
		e.repairCount++
		switch res.Outcome {
		case core.RepairMoved:
			e.frep.RepairedJobs++
			if err := e.rebindJob(j, res.Placement); err != nil {
				return err
			}
		case core.RepairDegraded:
			e.frep.DegradedJobs++
			if err := e.rebindJob(j, res.Placement); err != nil {
				return err
			}
		case core.RepairFailed:
			evicted[res.Job] = true
			e.frep.EvictedJobs++
		}
		e.cfg.Recorder.Record(trace.Event{
			Time: e.now, Kind: trace.KindRepair,
			Job: j.spec.ID, VMs: res.MovedVMs, Outcome: res.Outcome.String(),
		})
	}
	if len(evicted) > 0 {
		kept := e.jobs[:0]
		for _, j := range e.jobs {
			if !evicted[j.allocID] {
				kept = append(kept, j)
				continue
			}
			e.failedJobs++
			e.cfg.Recorder.Record(trace.Event{Time: e.now, Kind: trace.KindJobFail, Job: j.spec.ID})
		}
		e.jobs = kept
	}
	return nil
}

// failureReport finalizes the run's failure counters. The report is
// fully deterministic: counts only, no wall-clock telemetry — that lives
// in repairLatencyMillis, reported separately so identical seeds yield
// identical FailureReports.
func (e *engine) failureReport() FailureReport {
	return e.frep
}

// repairLatencyMillis is the mean wall-clock latency of the repair DP
// over every repair attempt (0 when none ran). Telemetry, not simulated
// time: it varies run to run and is excluded from determinism checks.
func (e *engine) repairLatencyMillis() float64 {
	if e.repairCount == 0 {
		return 0
	}
	return float64(e.repairTotal) / float64(e.repairCount) / float64(time.Millisecond)
}
