// Package topology models the physical datacenter network as a tree, the
// setting the SVC paper's allocation algorithms operate in: machines with VM
// slots at the leaves, switches above them, and capacity-limited links
// between a node and its parent.
//
// A Topology is immutable after construction; all mutable allocation state
// (used slots, reserved bandwidth) lives in the core package so that many
// concurrent simulations can share one topology.
package topology

import (
	"errors"
	"fmt"
)

// NodeID identifies a node in a topology. IDs are dense indices in
// [0, Len()).
type NodeID int

// None is the NodeID used where no node applies (the root's parent).
const None NodeID = -1

// LinkID identifies a physical link by its lower endpoint: link L is the
// uplink connecting node L to its parent. The root has no uplink, so valid
// LinkIDs are exactly the non-root NodeIDs.
type LinkID = NodeID

// Node is one vertex of the datacenter tree. A node with no children is a
// physical machine and must have Slots > 0; interior nodes are switches and
// have Slots == 0.
type Node struct {
	ID       NodeID
	Parent   NodeID // None for the root
	Children []NodeID
	Level    int     // 0 for machines, increasing toward the root
	Slots    int     // VM slots (machines only)
	UpCap    float64 // capacity of the uplink to Parent, per direction; 0 for the root
}

// IsMachine reports whether the node is a leaf machine.
func (n *Node) IsMachine() bool { return len(n.Children) == 0 }

// Topology is an immutable datacenter tree.
type Topology struct {
	nodes    []Node
	root     NodeID
	levels   [][]NodeID // levels[l] lists nodes at level l, bottom-up
	machines []NodeID
	links    []LinkID // every node but the root, in ID order
	slots    int
	maxDeg   int
	maxSlots int     // the most slots on one machine
	hostCap  float64 // the largest machine uplink capacity; 0 when the root is the only machine
}

// errTopology is the prefix for all construction errors.
var errTopology = errors.New("topology")

// build validates the node set and computes the derived indexes. Nodes must
// form a single rooted tree with machines exactly at the leaves.
func build(nodes []Node) (*Topology, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", errTopology)
	}
	t := &Topology{nodes: nodes, root: None, links: make([]LinkID, 0, len(nodes)-1)}
	for i := range nodes {
		n := &nodes[i]
		if n.ID != NodeID(i) {
			return nil, fmt.Errorf("%w: node at index %d has ID %d", errTopology, i, n.ID)
		}
		if n.Parent == None {
			if t.root != None {
				return nil, fmt.Errorf("%w: multiple roots (%d and %d)", errTopology, t.root, n.ID)
			}
			t.root = n.ID
		} else {
			t.links = append(t.links, n.ID)
			if n.Parent < 0 || int(n.Parent) >= len(nodes) {
				return nil, fmt.Errorf("%w: node %d has invalid parent %d", errTopology, n.ID, n.Parent)
			}
			if n.UpCap <= 0 {
				return nil, fmt.Errorf("%w: node %d has non-positive uplink capacity %v", errTopology, n.ID, n.UpCap)
			}
		}
		if n.IsMachine() {
			if n.Slots <= 0 {
				return nil, fmt.Errorf("%w: machine %d has no slots", errTopology, n.ID)
			}
			t.machines = append(t.machines, n.ID)
			t.slots += n.Slots
			t.maxSlots = max(t.maxSlots, n.Slots)
			if n.Parent != None {
				t.hostCap = max(t.hostCap, n.UpCap)
			}
		} else if n.Slots != 0 {
			return nil, fmt.Errorf("%w: switch %d has slots", errTopology, n.ID)
		}
		if len(n.Children) > t.maxDeg {
			t.maxDeg = len(n.Children)
		}
	}
	if t.root == None {
		return nil, fmt.Errorf("%w: no root", errTopology)
	}
	if err := t.computeLevels(); err != nil {
		return nil, err
	}
	return t, nil
}

// computeLevels assigns Level = 1 + max(child levels) (0 for machines),
// verifies parent/child consistency and acyclicity, and fills the level
// index.
func (t *Topology) computeLevels() error {
	// Verify the child lists agree with the parent pointers.
	childCount := 0
	for i := range t.nodes {
		for _, c := range t.nodes[i].Children {
			if c < 0 || int(c) >= len(t.nodes) {
				return fmt.Errorf("%w: node %d has invalid child %d", errTopology, i, c)
			}
			if t.nodes[c].Parent != NodeID(i) {
				return fmt.Errorf("%w: node %d lists child %d whose parent is %d", errTopology, i, c, t.nodes[c].Parent)
			}
			childCount++
		}
	}
	if childCount != len(t.nodes)-1 {
		return fmt.Errorf("%w: %d parent-child edges for %d nodes (cycle or orphan)", errTopology, childCount, len(t.nodes))
	}
	// Bottom-up level computation by repeated sweeps; the tree height is
	// tiny (<= ~4), so this is effectively linear.
	assigned := make([]bool, len(t.nodes))
	remaining := len(t.nodes)
	for remaining > 0 {
		progress := false
		for i := range t.nodes {
			if assigned[i] {
				continue
			}
			n := &t.nodes[i]
			level, ready := 0, true
			for _, c := range n.Children {
				if !assigned[c] {
					ready = false
					break
				}
				if l := t.nodes[c].Level + 1; l > level {
					level = l
				}
			}
			if !ready {
				continue
			}
			n.Level = level
			assigned[i] = true
			remaining--
			progress = true
		}
		if !progress {
			return fmt.Errorf("%w: cyclic structure", errTopology)
		}
	}
	height := t.nodes[t.root].Level
	t.levels = make([][]NodeID, height+1)
	for i := range t.nodes {
		l := t.nodes[i].Level
		t.levels[l] = append(t.levels[l], NodeID(i))
	}
	return nil
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.nodes) }

// Root returns the root node ID.
func (t *Topology) Root() NodeID { return t.root }

// Height returns the level of the root (machines are level 0).
func (t *Topology) Height() int { return t.nodes[t.root].Level }

// MaxDegree returns the maximum number of children of any node.
func (t *Topology) MaxDegree() int { return t.maxDeg }

// MaxMachineSlots returns the most VM slots on one machine.
func (t *Topology) MaxMachineSlots() int { return t.maxSlots }

// MaxHostCap returns the largest machine uplink capacity: 0 when the root
// is the only machine, which has no uplink.
func (t *Topology) MaxHostCap() float64 { return t.hostCap }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return &t.nodes[id] }

// Machines returns the IDs of all leaf machines. The returned slice is
// shared; callers must not modify it.
func (t *Topology) Machines() []NodeID { return t.machines }

// TotalSlots returns the total number of VM slots in the datacenter.
func (t *Topology) TotalSlots() int { return t.slots }

// AtLevel returns the node IDs at the given level (0 = machines). The
// returned slice is shared; callers must not modify it.
func (t *Topology) AtLevel(level int) []NodeID {
	if level < 0 || level >= len(t.levels) {
		return nil
	}
	return t.levels[level]
}

// Links returns all LinkIDs (every node except the root), in ID order. The
// returned slice is shared; callers must not modify it.
func (t *Topology) Links() []LinkID { return t.links }

// LinkCap returns the per-direction capacity of link id.
func (t *Topology) LinkCap(id LinkID) float64 { return t.nodes[id].UpCap }

// PathToRoot returns the uplinks traversed from node id to the root, in
// bottom-up order.
func (t *Topology) PathToRoot(id NodeID) []LinkID {
	var path []LinkID
	for t.nodes[id].Parent != None {
		path = append(path, id)
		id = t.nodes[id].Parent
	}
	return path
}

// Path returns the links traversed from machine src to machine dst,
// split into the upward segment (uplinks from src toward the common
// ancestor) and the downward segment (uplinks from dst toward the common
// ancestor, traversed in the downward direction). Both segments are empty
// when src == dst.
func (t *Topology) Path(src, dst NodeID) (up, down []LinkID) {
	if src == dst {
		return nil, nil
	}
	// Walk both nodes to the root and trim the shared suffix; what remains
	// are the links strictly below the lowest common ancestor.
	sp := t.PathToRoot(src)
	dp := t.PathToRoot(dst)
	i, j := len(sp), len(dp)
	for i > 0 && j > 0 && sp[i-1] == dp[j-1] {
		i--
		j--
	}
	return sp[:i], dp[:j]
}

// SubtreeSlots returns the total VM slots in the subtree rooted at id.
func (t *Topology) SubtreeSlots(id NodeID) int {
	n := &t.nodes[id]
	if n.IsMachine() {
		return n.Slots
	}
	total := 0
	for _, c := range n.Children {
		total += t.SubtreeSlots(c)
	}
	return total
}

// SubtreeMachines appends the machines in the subtree rooted at id to dst
// and returns the extended slice.
func (t *Topology) SubtreeMachines(dst []NodeID, id NodeID) []NodeID {
	n := &t.nodes[id]
	if n.IsMachine() {
		return append(dst, id)
	}
	for _, c := range n.Children {
		dst = t.SubtreeMachines(dst, c)
	}
	return dst
}
