package core

import (
	"fmt"

	"repro/internal/topology"
)

// Failure repair re-runs Algorithm 1 with the VMs that survived a failure
// pinned to their machines: surviving VMs never move, only the displaced
// ones are placed, and the chosen subtree must contain every pinned machine
// so the whole cluster stays mutually reachable. That is not a second
// dynamic program — it is homogTable (homog.go) with two more inputs, a
// per-subtree lower bound and, for the degraded pass, the uplink filter
// O_L < 1 (paper Eq. 4) switched off. This file only validates the pins and
// hands them to the table.

// allocateHomogPinnedScoped places a homogeneous request with some VMs
// pinned: pinned maps machines to the VM counts that must remain there.
// The returned placement includes the pinned VMs (entry counts are totals
// per machine). The ledger must not be carrying the request being
// repaired — the caller rolls the job back first, so pinned slots are
// free again. A non-nil scope confines the repair to the scope's subtree
// exactly like allocateHomogScoped does for admissions. Always a cold
// plan in a pooled table, never a plan-cache entry: see planRepairLocked.
//
// With relax == false the admission condition O_L < 1 is enforced on every
// uplink, exactly like AllocateHomog; ErrNoCapacity means no
// guarantee-preserving repair exists. With relax == true only slot
// capacity and reachability constrain the placement, and the min-max
// objective limits (but does not bound) the resulting occupancy — the
// graceful-degradation path, which the manager reports as a weakened
// effective eps rather than silently violating the guarantee.
func allocateHomogPinnedScoped(led *Ledger, req Homogeneous, policy Policy, pinned map[topology.NodeID]int, relax bool, scope *planScope) (Placement, []Contribution, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	topo := led.Topology()
	t := homogTablePool.Get().(*homogTable)
	defer homogTablePool.Put(t)
	t.reset(topo, scope, req, policy)
	t.relax = relax
	for m, count := range pinned {
		if count == 0 {
			continue
		}
		if count < 0 || int(m) < 0 || int(m) >= topo.Len() || !topo.Node(m).IsMachine() {
			return Placement{}, nil, fmt.Errorf("%w: pinned %d VMs on node %d", ErrBadRequest, count, m)
		}
		if !led.Faults().Alive(m) {
			return Placement{}, nil, fmt.Errorf("%w: pinned machine %d is not alive", ErrBadRequest, m)
		}
		if free := led.FreeSlots(m); count > free {
			return Placement{}, nil, fmt.Errorf("%w: pinned %d VMs on machine %d with %d free slots", ErrBadRequest, count, m, free)
		}
		t.pin(topo, m, count)
	}
	if t.pinned > req.N {
		return Placement{}, nil, fmt.Errorf("%w: %d pinned VMs exceed request size %d", ErrBadRequest, t.pinned, req.N)
	}
	p, contribs, _, err := t.plan(led, scope)
	return p, contribs, err
}
