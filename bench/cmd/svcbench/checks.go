package main

import (
	"fmt"
	"math"

	"repro/bench/spans"
	"repro/internal/core"
)

// result is what one run of one workload produced.
type result struct {
	e2e       values
	layers    values
	attempted int
	failed    int
	problems  []string  // failed correctness checks; any makes the run incorrect
	speeds    []float64 // the processor's speed beside each timed interval (speed.go)
}

func newResult() *result { return &result{e2e: values{}, layers: values{}} }

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkState rebuilds a manager from an exported state — which
// validates it structurally, slot by slot — and asserts the paper's
// Eq. 4 on every link (occupancy below 1) and conservation: the jobs
// the state holds are the jobs the generator holds.
func (r *result) checkState(e *env, st *core.ManagerState, held int) {
	mgr, err := core.NewManagerFromState(e.topo, eps, st)
	if err != nil {
		r.failf("exported state does not rebuild: %v", err)
		return
	}
	for _, ll := range mgr.LinkLoads() {
		if !(ll.Occupancy < 1) {
			r.failf("Eq. 4 violated: link %d has occupancy %v", ll.Link, ll.Occupancy)
			return
		}
	}
	if len(st.Jobs) != held {
		r.failf("conservation: state holds %d jobs, the generator holds %d", len(st.Jobs), held)
	}
}

// golden pins what the deterministic prefill and warm-up must produce
// for a seed: how many admits svcd accepted and refused, and the highest
// link occupancy afterwards.
type golden struct {
	Admitted     int
	Rejected     int
	MaxOccupancy float64
}

// goldens holds the pinned outcomes for the seeds the acceptance runs
// use. Other seeds are still checked against the in-process reference;
// the goldens additionally catch a change that moves svcd and the
// reference together.
var goldens = map[uint64]map[string]golden{
	1: {
		"durable-churn": {Admitted: 1004, Rejected: 0, MaxOccupancy: 0.8326174307217459},
		"plan-miss":     {Admitted: 408, Rejected: 135, MaxOccupancy: 0.9995522872419571},
		"read-mix":      {Admitted: 569, Rejected: 0, MaxOccupancy: 0.8326174307217459},
	},
	2: {
		"durable-churn": {Admitted: 1001, Rejected: 0, MaxOccupancy: 0.8326174307217459},
		"plan-miss":     {Admitted: 431, Rejected: 115, MaxOccupancy: 0.98826375806856},
		"read-mix":      {Admitted: 566, Rejected: 0, MaxOccupancy: 0.8326174307217459},
	},
}

func (r *result) checkGolden(workload string, seed uint64, got golden) {
	want, ok := goldens[seed][workload]
	if !ok {
		return
	}
	if got.Admitted != want.Admitted || got.Rejected != want.Rejected ||
		math.Abs(got.MaxOccupancy-want.MaxOccupancy) > 1e-9 {
		r.failf("golden for seed %d: after warm-up got %+v, pinned %+v", seed, got, want)
	}
}

// checkBudget asserts that the traced latency budget adds up, and the
// two properties the workloads are defined by: durable-churn spends most
// of a request waiting for the log, and plan-miss almost none.
func (r *result) checkBudget(workload string, tr *traced) {
	if ratio := tr.layers["trace.span_sum_over_e2e"]; ratio < 0.95 || ratio > 1.05 {
		r.failf("trace: self times add up to %.3f of the handler time, want 1.00±0.05", ratio)
	}
	wait := tr.totals[spans.CommitWait].Self
	switch workload {
	case "durable-churn":
		for name, t := range tr.totals {
			if name != spans.CommitWait && t.Self > wait {
				r.failf("durable-churn: %s has more self time (%v) than %s (%v)", name, t.Self, spans.CommitWait, wait)
			}
		}
	case "plan-miss":
		// A third, not the tenth first planned: pinned to one processor the
		// log's committer takes turns with the caller instead of running
		// beside it, and the wait measures 10-16 % of the handler time, most
		// when the host makes system calls dear.
		if handle := tr.totals[spans.Handle].Dur; 3*wait > handle {
			r.failf("plan-miss: %s is %v of %v handler time, want under a third", spans.CommitWait, wait, handle)
		}
	}
}

// checkCache asserts the plan-cache property the two planner workloads
// are defined by: the catalogue fits the cache, the paper population
// does not.
func (r *result) checkCache(workload string, hitShare float64) {
	switch {
	case workload == "durable-churn" && hitShare <= 0.9:
		r.failf("durable-churn: plan-cache hit share %.3f, want above 0.9", hitShare)
	case workload == "plan-miss" && hitShare >= 0.1:
		r.failf("plan-miss: plan-cache hit share %.3f, want below 0.1", hitShare)
	}
}
