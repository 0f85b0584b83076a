// Package shard is a fixture shadowing repro/internal/shard for the
// router-table discipline: values read out of the Router's recovered
// tables alias live shared state and are read-only.
package shard

type PlacementEntry struct {
	Machine int
	Count   int
}

type IdemState struct {
	Job       int64
	Placement []PlacementEntry
}

type Router struct {
	jobPods map[int]int
	idem    map[string]IdemState
}

// --- negative: reading a table value without mutating it ---

func (r *Router) PodOf(id int) int {
	pod := r.jobPods[id]
	return pod
}

// --- negative: a defensive copy may be edited freely ---

func (r *Router) PlacementCopy(key string) []PlacementEntry {
	is := r.idem[key]
	out := append([]PlacementEntry(nil), is.Placement...)
	if len(out) > 0 {
		out[0].Count = 0
	}
	return out
}

// --- positive: editing a bound placement shared with the live table ---

func (r *Router) badRehome(key string, machine int) {
	is := r.idem[key]
	for i := range is.Placement {
		is.Placement[i].Machine = machine // want `write through shared snapshot is`
	}
}

// --- positive: aliasing a whole table and writing through the alias ---

func (r *Router) badMove(id, pod int) {
	jobPods := r.jobPods
	jobPods[id] = pod // want `write through shared snapshot jobPods`
}

func (r *Router) badAlias(key string) {
	idem := r.idem
	idem[key] = IdemState{} // want `write through shared snapshot idem`
}
