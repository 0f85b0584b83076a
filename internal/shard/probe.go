package shard

import "repro/internal/core"

// Read-only probes matching the unsharded manager's surface, so the HTTP
// layer can serve a Router and a Manager through one Controller seam.

// ExportState is MergedState under the Controller-interface name: the
// router's full serializable state, reassembled from the pod shards.
func (r *Router) ExportState() *core.ManagerState { return r.MergedState() }

// CanAllocateHomog reports whether the request would currently be
// admitted: whether any single pod could host it.
func (r *Router) CanAllocateHomog(req core.Homogeneous) bool {
	for _, m := range r.mgrs {
		if m.CanAllocateHomog(req) {
			return true
		}
	}
	return false
}

// CanAllocateHetero reports whether the request would currently be
// admitted; see CanAllocateHomog.
func (r *Router) CanAllocateHetero(req core.Heterogeneous) bool {
	for _, m := range r.mgrs {
		if m.CanAllocateHetero(req) {
			return true
		}
	}
	return false
}

// Headroom reports how many copies of the request would fit: the sum of
// the per-pod headrooms, which is exact because each copy must fit
// inside one pod.
func (r *Router) Headroom(req core.Homogeneous, limit int) (int, error) {
	total := 0
	for _, m := range r.mgrs {
		n, err := m.Headroom(req, limit)
		if err != nil {
			return total, err
		}
		total += n
		if limit > 0 && total >= limit {
			return limit, nil
		}
	}
	return total, nil
}
