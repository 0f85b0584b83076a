package core

import (
	"runtime"
	"sync"

	"repro/internal/topology"
)

// Level-parallel execution of the allocation DP. All vertices of one tree
// level are independent — a vertex's record depends only on its children's
// records, which the bottom-up traversal has already finalized — so they
// can be computed concurrently. The subtree *selection* scan stays
// sequential in topology order, which keeps tie-breaking (and therefore
// placements) bit-identical to the sequential path.

const (
	// parallelMinNodes gates auto-parallelism: topologies smaller than
	// this finish the whole DP faster than goroutine fan-out costs.
	parallelMinNodes = 256
	// parallelMinVMs gates auto-parallelism on request size: tiny
	// requests make each vertex record trivially cheap.
	parallelMinVMs = 4
	// parallelMinLevelWork gates fan-out per tree level, measured in
	// estimated inner DP iterations (see homogTable.levelWork). The paper-scale
	// topology peaks around 250k iterations per level, where measured
	// fan-out overhead still exceeds the win, so levels below this bound
	// always run sequentially — even with an explicit worker count.
	parallelMinLevelWork = 1 << 19
)

// resolveWorkers turns the caller's worker request into an effective
// worker count. requested == 1 forces the sequential path, requested > 1
// forces that many workers (used by equivalence tests and benchmarks),
// and requested <= 0 picks automatically: GOMAXPROCS workers when the
// topology and request are large enough to amortize fan-out, else 1.
func resolveWorkers(requested, nodes, n int) int {
	if requested == 1 {
		return 1
	}
	if requested > 1 {
		return requested
	}
	p := runtime.GOMAXPROCS(0)
	if p <= 1 || nodes < parallelMinNodes || n < parallelMinVMs {
		return 1
	}
	return p
}

// forEachVertex invokes fn for every vertex, fanning contiguous chunks
// out to at most `workers` goroutines (the caller's goroutine counts as
// worker 0). fn must be safe to run concurrently for distinct vertices.
func forEachVertex(vertices []topology.NodeID, workers int, fn func(v topology.NodeID)) {
	if workers > len(vertices) {
		workers = len(vertices)
	}
	if workers <= 1 {
		for _, v := range vertices {
			fn(v)
		}
		return
	}
	chunk := (len(vertices) + workers - 1) / workers
	var wg sync.WaitGroup
	for slot := 1; slot < workers; slot++ {
		lo := slot * chunk
		if lo >= len(vertices) {
			break
		}
		hi := min(lo+chunk, len(vertices))
		wg.Add(1)
		go func(verts []topology.NodeID) {
			defer wg.Done()
			for _, v := range verts {
				fn(v)
			}
		}(vertices[lo:hi])
	}
	for _, v := range vertices[:min(chunk, len(vertices))] {
		fn(v)
	}
	wg.Wait()
}
