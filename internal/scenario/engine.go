package scenario

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// liveJob tracks one admitted tenant on the engine side: where its VMs
// are and when it releases them. The engine mirrors placements and fault
// state so it can (a) decide kills without asking the backend and
// (b) cross-check the backend's accounting (conservation assertion).
type liveJob struct {
	id        int64
	releaseAt int
	entries   []core.PlacementEntry
}

// engine executes one compiled plan against one backend in virtual time.
type engine struct {
	plan     *Plan
	backend  Backend
	mirror   *topology.Faults
	used     []int // per-machine slots held by live jobs (engine view)
	live     map[int64]*liveJob
	releases releaseHeap

	report   *Report
	conserve []string // conservation violations (first few)
	mcReport *GuaranteeReport
}

// Run executes the plan against the backend and returns the report with
// every assertion evaluated. A returned error means the run itself broke
// (backend failure, protocol error) — assertion failures are reported in
// Report.Pass, not as errors.
func Run(p *Plan, b Backend) (*Report, error) {
	e := &engine{
		plan:    p,
		backend: b,
		mirror:  topology.NewFaults(p.Topo),
		used:    make([]int, p.Topo.Len()),
		live:    map[int64]*liveJob{},
		report:  newReport(p, b.Name()),
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.finish()
	return e.report, nil
}

func (e *engine) run() error {
	const none = int(^uint(0) >> 1) // max int
	jobs, events := e.plan.Jobs, e.plan.Events
	ai, ei := 0, 0
	mcAt := e.plan.GuaranteeAt
	sampleEvery := e.plan.Scenario.Run.SampleEvery
	t := -1
	for {
		// Next virtual second with real work; samples never extend the
		// run on their own.
		next := none
		if ai < len(jobs) && jobs[ai].ArriveAt < next {
			next = jobs[ai].ArriveAt
		}
		if ei < len(events) && events[ei].At < next {
			next = events[ei].At
		}
		if len(e.releases) > 0 && e.releases[0].at < next {
			next = e.releases[0].at
		}
		if mcAt > t && mcAt < next {
			next = mcAt
		}
		if next == none {
			break
		}
		if sampleEvery > 0 {
			if s := (t/sampleEvery + 1) * sampleEvery; t >= 0 && s < next {
				next = s
			}
		}
		t = next

		// Within a second: releases free capacity first, then faults
		// land (and repair or kill), then new tenants arrive, then the
		// guarantee is measured, then the state is sampled.
		for len(e.releases) > 0 && e.releases[0].at == t {
			rel := heap.Pop(&e.releases).(release)
			if err := e.releaseJob(rel.id); err != nil {
				return err
			}
		}
		faulted := false
		for ei < len(events) && events[ei].At == t {
			applied, err := e.applyEvent(events[ei])
			if err != nil {
				return err
			}
			faulted = faulted || applied
			ei++
		}
		if faulted {
			if err := e.handleFaults(); err != nil {
				return err
			}
		}
		batchEnd := ai
		for batchEnd < len(jobs) && jobs[batchEnd].ArriveAt == t {
			batchEnd++
		}
		if batchEnd > ai {
			if err := e.admit(jobs[ai:batchEnd], t); err != nil {
				return err
			}
			ai = batchEnd
		}
		if t == mcAt {
			rep, err := e.measureGuarantee()
			if err != nil {
				return err
			}
			e.mcReport = rep
		}
		if sampleEvery > 0 && t%sampleEvery == 0 {
			if err := e.sample(t); err != nil {
				return err
			}
		}
	}
	e.report.EndSeconds = t
	if t < 0 {
		e.report.EndSeconds = 0
	}
	// Always close with an end-state sample (drain_to_empty reads it),
	// unless the loop's last iteration already recorded it.
	if n := len(e.report.Samples); n > 0 && e.report.Samples[n-1].At == e.report.EndSeconds {
		return nil
	}
	return e.sample(e.report.EndSeconds)
}

// releaseJob returns one job's slots; jobs evicted by a failed repair
// have already left the live set and are skipped.
func (e *engine) releaseJob(id int64) error {
	j, ok := e.live[id]
	if !ok {
		return nil
	}
	if err := e.backend.Release(id); err != nil {
		return fmt.Errorf("scenario: release job %d: %w", id, err)
	}
	e.removeJob(j)
	e.report.Completed++
	return nil
}

func (e *engine) removeJob(j *liveJob) {
	for _, en := range j.entries {
		e.used[en.Machine] -= en.Count
	}
	delete(e.live, j.id)
}

// applyEvent filters the event through the fault mirror (duplicate fails
// and spurious restores in a compiled cascade schedule are no-ops) and
// forwards real transitions to the backend.
func (e *engine) applyEvent(ev Event) (bool, error) {
	if ev.Kind == EvFailover {
		// A controller failover displaces no tenants and touches no
		// fault state; it must be invisible to everything but the
		// report counter. The conservation cross-check at the next
		// sample holds the promoted controller to that.
		fo, ok := e.backend.(Failoverer)
		if !ok {
			return false, fmt.Errorf("scenario: backend %q cannot fail over", e.backend.Name())
		}
		if err := fo.Failover(); err != nil {
			return false, fmt.Errorf("scenario: failover at t=%d: %w", ev.At, err)
		}
		e.report.Failovers++
		return false, nil
	}
	// The mirror is the engine's own standalone overlay (built by
	// topology.NewFaults, never attached to a Manager); mutating it
	// cannot bypass any journal, so the seam rule does not apply.
	changed := false
	switch ev.Kind {
	case EvFailMachine:
		//lint:ignore journalseam engine-private overlay, not manager state
		changed = e.mirror.FailMachine(ev.Node)
	case EvRestoreMachine:
		//lint:ignore journalseam engine-private overlay, not manager state
		changed = e.mirror.RestoreMachine(ev.Node)
	case EvFailLink:
		//lint:ignore journalseam engine-private overlay, not manager state
		changed = e.mirror.FailLink(ev.Node)
	case EvRestoreLink:
		//lint:ignore journalseam engine-private overlay, not manager state
		changed = e.mirror.RestoreLink(ev.Node)
	}
	if !changed {
		return false, nil
	}
	if err := e.backend.Apply(ev); err != nil {
		return false, fmt.Errorf("scenario: apply %v node %d: %w", ev.Kind, ev.Node, err)
	}
	switch ev.Kind {
	case EvFailMachine:
		e.report.MachineFailures++
	case EvRestoreMachine:
		e.report.MachineRestores++
	case EvFailLink:
		if ev.Drain {
			e.report.Drains++
		}
		e.report.LinkFailures++
	case EvRestoreLink:
		e.report.LinkRestores++
	}
	return true, nil
}

// handleFaults resolves displaced jobs after fault events: repair mode
// asks the controller to re-place them; kill mode releases them.
func (e *engine) handleFaults() error {
	repair := e.plan.Scenario.Chaos != nil && e.plan.Scenario.Chaos.Repair
	if repair {
		results, err := e.backend.RepairAll()
		if err != nil {
			return fmt.Errorf("scenario: repair: %w", err)
		}
		for _, r := range results {
			j, ok := e.live[r.ID]
			if !ok {
				return fmt.Errorf("scenario: repair of unknown job %d", r.ID)
			}
			switch r.Outcome {
			case "noop":
			case "moved", "degraded":
				for _, en := range j.entries {
					e.used[en.Machine] -= en.Count
				}
				j.entries = r.Placement
				for _, en := range j.entries {
					e.used[en.Machine] += en.Count
				}
				if r.Outcome == "moved" {
					e.report.MovedRepairs++
				} else {
					e.report.DegradedRepairs++
				}
			case "failed":
				// The controller evicted the job and freed its
				// reservations; drop it from the live set so its
				// scheduled release becomes a no-op.
				e.removeJob(j)
				e.report.Evicted++
			default:
				return fmt.Errorf("scenario: unknown repair outcome %q", r.Outcome)
			}
		}
		return nil
	}
	// Kill mode: tenants on dead or unreachable machines are terminated.
	ids := make([]int64, 0, len(e.live))
	for id := range e.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := e.live[id]
		hit := false
		for _, en := range j.entries {
			if !e.mirror.Alive(en.Machine) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if err := e.backend.Release(id); err != nil {
			return fmt.Errorf("scenario: kill job %d: %w", id, err)
		}
		e.removeJob(j)
		e.report.Killed++
	}
	return nil
}

// admit submits the tenants arriving this second, optionally from
// several goroutines (admission-storm scenarios). Results are recorded
// in arrival order either way.
func (e *engine) admit(batch []PlannedJob, t int) error {
	results := make([]AdmitResult, len(batch))
	errs := make([]error, len(batch))
	conc := e.plan.Scenario.Run.Concurrency
	if conc <= 1 || len(batch) == 1 {
		for i, j := range batch {
			results[i], errs[i] = e.backend.Allocate(j.Req)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, conc)
		for i := range batch {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = e.backend.Allocate(batch[i].Req)
				<-sem
			}(i)
		}
		wg.Wait()
	}
	for i, j := range batch {
		if errs[i] != nil {
			return fmt.Errorf("scenario: allocate tenant %d: %w", j.ID, errs[i])
		}
		tr := &e.report.Templates[j.Template]
		tr.Offered++
		e.report.Offered++
		if !results[i].Admitted {
			tr.Rejected++
			e.report.Rejected++
			continue
		}
		tr.Admitted++
		e.report.Admitted++
		lj := &liveJob{id: results[i].ID, releaseAt: t + j.Hold, entries: results[i].Placement}
		e.live[lj.id] = lj
		for _, en := range lj.entries {
			e.used[en.Machine] += en.Count
		}
		heap.Push(&e.releases, release{at: lj.releaseAt, id: lj.id})
		if len(e.live) > e.report.PeakRunning {
			e.report.PeakRunning = len(e.live)
		}
	}
	return nil
}

// sample records one state observation and cross-checks the backend's
// accounting against the engine's own mirror.
func (e *engine) sample(t int) error {
	st, err := e.backend.Stats()
	if err != nil {
		return fmt.Errorf("scenario: stats: %w", err)
	}
	e.report.Samples = append(e.report.Samples, Sample{
		At: t, Running: st.Running, FreeSlots: st.FreeSlots, MaxOccupancy: st.MaxOccupancy,
	})
	if st.MaxOccupancy > e.report.PeakMaxOccupancy {
		e.report.PeakMaxOccupancy = st.MaxOccupancy
	}
	if len(e.conserve) >= 4 {
		return nil
	}
	if st.Running != len(e.live) {
		e.conserve = append(e.conserve,
			fmt.Sprintf("t=%d: backend runs %d jobs, engine tracks %d", t, st.Running, len(e.live)))
	}
	expect := 0
	for _, m := range e.mirror.AliveMachines() {
		expect += e.plan.Topo.Node(m).Slots - e.used[m]
	}
	if st.FreeSlots != expect {
		e.conserve = append(e.conserve,
			fmt.Sprintf("t=%d: backend reports %d free slots, engine expects %d", t, st.FreeSlots, expect))
	}
	return nil
}

// release is one scheduled job end.
type release struct {
	at int
	id int64
}

// releaseHeap is a min-heap on (at, id) — deterministic pop order.
type releaseHeap []release

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
