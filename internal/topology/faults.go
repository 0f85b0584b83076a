package topology

import "fmt"

// Faults is a mutable fault overlay on an immutable Topology: which
// machines and links are currently failed. The Topology itself stays
// shared and read-only (many ledgers and simulations reference one tree);
// each consumer that needs fault state holds its own Faults.
//
// A failed link disconnects the whole subtree below it, so reachability —
// "can this machine still talk to the rest of the datacenter" — is a
// derived property of the link fault set. Faults caches the reachability
// vector and the alive-machine index, and invalidates those caches on
// every fail/restore by bumping an epoch; external caches keyed on
// topology-liveness can watch Epoch() to invalidate themselves the same
// way.
//
// Faults is not safe for concurrent use; core.Manager serializes access.
type Faults struct {
	topo        *Topology
	machineDown []bool // indexed by NodeID (machines only)
	linkDown    []bool // indexed by LinkID (non-root nodes only)
	// The number of true entries in machineDown and linkDown.
	machinesDown, linksDown int

	epoch uint64 // bumped on every mutation

	// Lazily rebuilt derived state, valid while cacheEpoch == epoch.
	cacheEpoch uint64
	cached     bool
	reachable  []bool   // node connected to the root via live links
	alive      []NodeID // machines up and reachable
	aliveSlots int
}

// NewFaults returns a fault overlay with everything in service.
func NewFaults(t *Topology) *Faults {
	return &Faults{
		topo:        t,
		machineDown: make([]bool, t.Len()),
		linkDown:    make([]bool, t.Len()),
	}
}

// Clone returns an independent copy sharing the same topology. The
// derived reachability cache is rebuilt on the source and copied warm:
// clones are handed out as shared read-only snapshots, and a cold cache
// would make the first Alive/Reachable call a lazy write racing every
// other reader of the same clone.
func (f *Faults) Clone() *Faults {
	f.rebuild()
	c := &Faults{
		topo:        f.topo,
		machineDown: make([]bool, len(f.machineDown)),
		linkDown:    make([]bool, len(f.linkDown)),
		epoch:       f.epoch,
		reachable:   make([]bool, len(f.reachable)),
		alive:       make([]NodeID, len(f.alive)),
		aliveSlots:  f.aliveSlots,
		cached:      true,
		cacheEpoch:  f.cacheEpoch,
	}
	c.machinesDown, c.linksDown = f.machinesDown, f.linksDown
	copy(c.machineDown, f.machineDown)
	copy(c.linkDown, f.linkDown)
	copy(c.reachable, f.reachable)
	copy(c.alive, f.alive)
	return c
}

// Topology returns the tree the overlay applies to.
func (f *Faults) Topology() *Topology { return f.topo }

// Epoch returns a counter that moves on every fail/restore; derived caches
// keyed on liveness compare epochs to detect staleness.
func (f *Faults) Epoch() uint64 { return f.epoch }

func (f *Faults) checkMachine(m NodeID) {
	if m < 0 || int(m) >= f.topo.Len() || !f.topo.Node(m).IsMachine() {
		panic(fmt.Sprintf("topology: node %d is not a machine", m))
	}
}

func (f *Faults) checkLink(l LinkID) {
	if l < 0 || int(l) >= f.topo.Len() || f.topo.Node(l).Parent == None {
		panic(fmt.Sprintf("topology: node %d has no uplink", l))
	}
}

// FailMachine takes a machine out of service. It reports whether the call
// changed anything (false if the machine was already down).
func (f *Faults) FailMachine(m NodeID) bool {
	f.checkMachine(m)
	if f.machineDown[m] {
		return false
	}
	f.machineDown[m] = true
	f.machinesDown++
	f.epoch++
	return true
}

// RestoreMachine returns a machine to service. It reports whether the call
// changed anything.
func (f *Faults) RestoreMachine(m NodeID) bool {
	f.checkMachine(m)
	if !f.machineDown[m] {
		return false
	}
	f.machineDown[m] = false
	f.machinesDown--
	f.epoch++
	return true
}

// FailLink takes a link out of service, disconnecting the subtree below it.
// It reports whether the call changed anything.
func (f *Faults) FailLink(l LinkID) bool {
	f.checkLink(l)
	if f.linkDown[l] {
		return false
	}
	f.linkDown[l] = true
	f.linksDown++
	f.epoch++
	return true
}

// RestoreLink returns a link to service. It reports whether the call
// changed anything.
func (f *Faults) RestoreLink(l LinkID) bool {
	f.checkLink(l)
	if !f.linkDown[l] {
		return false
	}
	f.linkDown[l] = false
	f.linksDown--
	f.epoch++
	return true
}

// MachineDown reports whether the machine itself is failed (regardless of
// link reachability).
func (f *Faults) MachineDown(m NodeID) bool { return f.machineDown[m] }

// LinkDown reports whether the link itself is failed.
func (f *Faults) LinkDown(l LinkID) bool { return f.linkDown[l] }

// rebuild recomputes the reachability vector and alive-machine index. The
// root is always reachable; every other node is reachable iff its parent
// is and its uplink is live. Levels are walked top-down so parents are
// finalized before children.
func (f *Faults) rebuild() {
	if f.cached && f.cacheEpoch == f.epoch {
		return
	}
	if f.reachable == nil {
		f.reachable = make([]bool, f.topo.Len())
	}
	f.reachable[f.topo.Root()] = true
	for level := f.topo.Height() - 1; level >= 0; level-- {
		for _, v := range f.topo.AtLevel(level) {
			f.reachable[v] = !f.linkDown[v] && f.reachable[f.topo.Node(v).Parent]
		}
	}
	f.alive = f.alive[:0]
	f.aliveSlots = 0
	for _, m := range f.topo.Machines() {
		if f.reachable[m] && !f.machineDown[m] {
			f.alive = append(f.alive, m)
			f.aliveSlots += f.topo.Node(m).Slots
		}
	}
	f.cached = true
	f.cacheEpoch = f.epoch
}

// Reachable reports whether the node is connected to the root via live
// links. Machine faults do not affect reachability of the node itself.
func (f *Faults) Reachable(n NodeID) bool {
	f.rebuild()
	return f.reachable[n]
}

// Alive reports whether a machine is in service: not failed and reachable
// from the root.
func (f *Faults) Alive(m NodeID) bool {
	f.rebuild()
	return f.reachable[m] && !f.machineDown[m]
}

// AliveMachines returns the machines currently in service. The returned
// slice is shared with the cache; callers must not modify or retain it
// across mutations.
func (f *Faults) AliveMachines() []NodeID {
	f.rebuild()
	return f.alive
}

// AliveSlots returns the total VM slots on alive machines.
func (f *Faults) AliveSlots() int {
	f.rebuild()
	return f.aliveSlots
}

// MachinesDown returns the number of failed machines (counting only the
// machine fault bit, not link-induced unreachability).
func (f *Faults) MachinesDown() int { return f.machinesDown }

// LinksDown returns the number of failed links.
func (f *Faults) LinksDown() int { return f.linksDown }

// AnyDown reports whether any machine or link is currently failed.
func (f *Faults) AnyDown() bool { return f.machinesDown+f.linksDown > 0 }
