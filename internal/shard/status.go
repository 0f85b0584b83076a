package shard

import (
	"maps"
	"sort"

	"repro/internal/core"
	"repro/internal/topology"
)

// ExportState reassembles the unsharded manager state from the pod-local
// shards. The pods partition every link and machine, and every job lives
// in one pod, so per-node fields and jobs are copied verbatim from their
// owner pod, never summed. With one pod it equals that pod's ExportState.
func (r *Router) ExportState() *core.ManagerState {
	states := make([]*core.ManagerState, len(r.mgrs))
	for i, m := range r.mgrs {
		states[i] = m.ExportState()
	}
	r.tabMu.Lock()
	var idem core.IdemTable // nil when empty, as core exports it
	if len(r.idem) > 0 {
		idem = maps.Clone(r.idem)
	}
	r.tabMu.Unlock()

	n := r.topo.Len()
	st := &core.ManagerState{
		Links: make([]core.LinkRecord, n),
		Used:  make([]int, n),
		Idem:  idem,
	}
	machinesDown := make(map[int]bool)
	linksDown := make(map[int]bool)
	for i, ps := range states {
		if ps.NextID > st.NextID {
			st.NextID = ps.NextID
		}
		for v := 0; v < n; v++ {
			if r.pods.Of(topology.NodeID(v)) == i {
				st.Links[v] = ps.Links[v]
				st.Used[v] = ps.Used[v]
			}
		}
		st.Jobs = append(st.Jobs, ps.Jobs...)
		for _, mc := range ps.MachinesDown {
			machinesDown[mc] = true
		}
		for _, l := range ps.LinksDown {
			linksDown[l] = true
		}
		st.Counters = st.Counters.Add(ps.Counters)
	}
	sort.Slice(st.Jobs, func(a, b int) bool { return st.Jobs[a].ID < st.Jobs[b].ID })

	// Down-lists keep the export convention: topology iteration order.
	for _, mc := range r.topo.Machines() {
		if machinesDown[int(mc)] {
			st.MachinesDown = append(st.MachinesDown, int(mc))
		}
	}
	for _, l := range r.topo.Links() {
		if linksDown[int(l)] {
			st.LinksDown = append(st.LinksDown, int(l))
		}
	}
	return st
}

// Running returns the number of admitted, unreleased jobs.
func (r *Router) Running() int {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	return len(r.jobPods)
}

// FreeSlots returns the unoccupied VM slots across all pods, each pod
// counting its own machines.
func (r *Router) FreeSlots() int {
	total := 0
	for _, m := range r.mgrs {
		total += m.FreeSlots()
	}
	return total
}

// MaxOccupancy returns the paper's Eq. 6 max link occupancy over the
// whole tree. Every link is owned by exactly one pod and foreign links
// sit at zero in a pod's ledger, so the global max is the max over pods.
func (r *Router) MaxOccupancy() float64 {
	max := 0.0
	for _, m := range r.mgrs {
		if o := m.MaxOccupancy(); o > max {
			max = o
		}
	}
	return max
}

// LinkLoads returns every link's load in link order, each taken from its
// owner pod's ledger, in a fresh slice the caller owns and may reorder.
func (r *Router) LinkLoads() []core.LinkLoad {
	perPod := make([][]core.LinkLoad, len(r.mgrs))
	for i, m := range r.mgrs {
		perPod[i] = m.LinkLoads()
	}
	links := r.topo.Links()
	out := make([]core.LinkLoad, len(links))
	for idx, l := range links {
		out[idx] = perPod[max(r.pods.OfLink(l), 0)][idx]
	}
	return out
}

// TopLinkLoads returns the k first links under core.MoreLoaded, in order,
// selected from the merged LinkLoads.
func (r *Router) TopLinkLoads(k int) []core.LinkLoad { return core.TopLoads(r.LinkLoads(), k) }

// AdmissionStats returns the admission counters summed over the pods,
// each of which plans its own admissions.
func (r *Router) AdmissionStats() core.AdmissionStats {
	var out core.AdmissionStats
	for _, m := range r.mgrs {
		st := m.AdmissionStats()
		out.Locked += st.Locked
		out.Plan.Merge(st.Plan)
		out.PlanCacheHits += st.PlanCacheHits
		out.PlanCacheMisses += st.PlanCacheMisses
		out.PlanCacheInvalidations += st.PlanCacheInvalidations
		out.PlanCacheEvictions += st.PlanCacheEvictions
	}
	return out
}

// FailureStats returns the merged fault and repair counters. Pods own
// disjoint machine and link sets, so the sums are exact.
func (r *Router) FailureStats() core.FailureStats {
	var out core.FailureStats
	for _, m := range r.mgrs {
		st := m.FailureStats()
		out.CounterState = out.CounterState.Add(st.CounterState)
		out.MachinesDown += st.MachinesDown
		out.LinksDown += st.LinksDown
		out.DegradedJobs += st.DegradedJobs
		out.RepairLatency.Merge(st.RepairLatency)
	}
	return out
}

// ShardStatus is one pod's slice of the /v1/status surface: the fields of
// httpapi.PodStatus, which the daemon converts it to and which gives them
// their wire names.
type ShardStatus struct {
	Shard        int
	Root         int
	Jobs         int
	FreeSlots    int
	MaxOccupancy float64
}

// ShardStatuses returns the per-pod status sections.
func (r *Router) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(r.mgrs))
	for i, m := range r.mgrs {
		out[i] = ShardStatus{
			Shard:        i,
			Root:         int(r.pods.Root(i)),
			Jobs:         m.Running(),
			FreeSlots:    m.FreeSlots(),
			MaxOccupancy: m.MaxOccupancy(),
		}
	}
	return out
}
