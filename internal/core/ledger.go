package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Ledger tracks the mutable allocation state of a datacenter: per-link
// bandwidth reservations (deterministic and stochastic, the paper's Fig. 2
// view) and per-machine used VM slots. It evaluates the probabilistic
// admission condition (paper Eq. 4) and the bandwidth occupancy ratio
// (paper Eq. 6) for every link.
//
// A Ledger is not safe for concurrent use, and a plan counts as a write:
// it fills the ledger's bound memo (subtreeBound). Manager provides the
// synchronized interface.
type Ledger struct {
	topo *topology.Topology
	eps  float64
	c    float64 // PhiInv(1 - eps), the paper's constant c

	links  []linkState      // indexed by NodeID; the root entry is unused
	used   []int            // used VM slots, indexed by NodeID (machines only)
	faults *topology.Faults // failed machines and links (failure injection)

	// subVer[v] is the subtree version of node v: it changes whenever any
	// reservation or slot state inside v's subtree (including v's own
	// uplink) changes. Ticks come from a process-global counter, so equal
	// subVer values across any two ledgers of the same lineage — the live
	// ledger and its clones — imply bit-identical subtree state. The plan
	// cache keys DP records on it; see plancache.go.
	// Fault state is deliberately NOT folded in: reachability depends on
	// links above v, so caches track Faults().Epoch() separately. NewLedger
	// stamps every vertex, so no version is 0.
	subVer []uint64
	bounds []subtreeBound // subtreeBound's memo, per vertex
}

// subtreeBound is one entry of the bound memo, current while ver and epoch
// are its vertex's SubtreeVersion and Faults().Epoch().
type subtreeBound struct {
	ver, epoch uint64
	free       int     // free VM slots below the vertex
	inner      float64 // the largest occupancy of a link strictly inside it
}

// subVerTick issues globally unique subtree-version ticks. Monotonic per
// process; never reset, so clones that diverge can never alias versions.
// boundSample and refusalSample sample subtreeBound's and dpTable.settle's
// -tags invariants checks.
var subVerTick, boundSample, refusalSample atomic.Uint64

// linkState is the reservation bookkeeping of one physical link, following
// the paper's decomposition: deterministic reservations D_L plus the
// sufficient statistics (sum of means, sum of variances) of the stochastic
// demands sharing S_L = C_L - D_L. cap sits beside the sums, on the line
// OccupancyWith reads, so this is not the exported LinkRecord: one type
// would put capacity into the state or widen the Eq. 4 loop's stride.
type linkState struct {
	cap        float64
	det        float64 // D_L
	sumMu      float64 // sum over stochastic demands of mu_{i,L}
	sumVar     float64 // sum over stochastic demands of sigma^2_{i,L}
	stochastic int     // number of stochastic demands carried
}

// NewLedger returns an empty ledger over the topology with bandwidth outage
// risk factor eps in (0, 1).
func NewLedger(topo *topology.Topology, eps float64) (*Ledger, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: risk factor eps must be in (0, 1), got %v", eps)
	}
	l := &Ledger{
		topo:   topo,
		eps:    eps,
		c:      stats.PhiInv(1 - eps),
		links:  make([]linkState, topo.Len()),
		used:   make([]int, topo.Len()),
		faults: topology.NewFaults(topo),
		subVer: make([]uint64, topo.Len()),
		bounds: make([]subtreeBound, topo.Len()),
	}
	for _, id := range topo.Links() {
		l.links[id].cap = topo.LinkCap(id)
	}
	for v, t := 0, subVerTick.Add(1); v < len(l.subVer); v++ {
		l.subVer[v] = t
	}
	return l, nil
}

// Clone returns an independent deep copy of the ledger sharing the same
// immutable topology. What-if explorations (capacity planning) mutate the
// clone freely without touching live state.
func (l *Ledger) Clone() *Ledger {
	c := &Ledger{
		topo:   l.topo,
		eps:    l.eps,
		c:      l.c,
		links:  make([]linkState, len(l.links)),
		used:   make([]int, len(l.used)),
		faults: l.faults.Clone(),
		subVer: make([]uint64, len(l.subVer)),
		bounds: make([]subtreeBound, len(l.bounds)),
	}
	copy(c.links, l.links)
	copy(c.used, l.used)
	copy(c.subVer, l.subVer)
	copy(c.bounds, l.bounds)
	return c
}

// Topology returns the topology the ledger tracks.
func (l *Ledger) Topology() *topology.Topology { return l.topo }

// Epsilon returns the ledger's risk factor.
func (l *Ledger) Epsilon() float64 { return l.eps }

// RiskConstant returns c = PhiInv(1 - eps).
func (l *Ledger) RiskConstant() float64 { return l.c }

// Occupancy returns the bandwidth occupancy ratio O_L of the link (paper
// Eq. 6): (D_L + sum mu_i + c*sqrt(sum sigma_i^2)) / C_L. The admission
// condition Eq. 4 holds if and only if O_L < 1.
func (l *Ledger) Occupancy(id topology.LinkID) float64 {
	return l.occupancy(id, 0, 0, 0)
}

// OccupancyWith returns the occupancy ratio the link would have if the
// given stochastic crossing demand were added.
func (l *Ledger) OccupancyWith(id topology.LinkID, d stats.Normal) float64 {
	return l.occupancy(id, 0, d.Mu, d.Var())
}

// OccupancyWithDet returns the occupancy ratio the link would have if a
// deterministic reservation of b were added.
func (l *Ledger) OccupancyWithDet(id topology.LinkID, b float64) float64 {
	return l.occupancy(id, b, 0, 0)
}

func (l *Ledger) occupancy(id topology.LinkID, addDet, addMu, addVar float64) float64 {
	s := &l.links[id]
	return (s.det + addDet + s.sumMu + addMu + l.c*sqrtNonNeg(s.sumVar+addVar)) / s.cap
}

// judgesEmptyLinks reports whether the empty-link refusal may judge a
// request of n VMs: c >= 0, some machine has an uplink, and no machine
// holds all n VMs, which would cross no link (ALGORITHMS.md §3).
func (l *Ledger) judgesEmptyLinks(n int) bool {
	return l.c >= 0 && l.topo.MaxHostCap() > 0 && n > l.topo.MaxMachineSlots()
}

// emptyHostCarries is occupancy's Eq. 4 test on an empty link of the
// largest host capacity with crossing demand d added: while c >= 0 every
// host link's best case.
func (l *Ledger) emptyHostCarries(d stats.Normal) bool {
	return (d.Mu+l.c*sqrtNonNeg(d.Var()))/l.topo.MaxHostCap() < 1
}

// bumpSubtree stamps a fresh global tick on node v and every ancestor up
// to the root: the DP-visible state of those subtrees just changed. Link
// state of link id L lives on node L's uplink, which is inside the
// subtree of L and of every ancestor, so mutators bump from the node the
// change is anchored at.
func (l *Ledger) bumpSubtree(v topology.NodeID) {
	t := subVerTick.Add(1)
	for {
		l.subVer[v] = t
		p := l.topo.Node(v).Parent
		if p == topology.None {
			return
		}
		v = p
	}
}

// SubtreeVersion returns the subtree version of node v. Equal values —
// across the ledger's whole clone lineage — certify that no reservation
// or slot state inside v's subtree changed in between.
func (l *Ledger) SubtreeVersion(v topology.NodeID) uint64 { return l.subVer[v] }

// subtreeBound returns the free VM slots below internal vertex v and the
// largest occupancy of a link strictly inside it, the bound dpTable.settle
// visits stale candidates by (ALGORITHMS.md §3). Every table reads this one
// memo, each entry built from its children's, so a commit costs the next
// call only the entries on its paths. Clone copies it: subtree ticks are
// unique to the process, and each overlay moves its own fault epoch.
func (l *Ledger) subtreeBound(v topology.NodeID) (free int, inner float64) {
	b := &l.bounds[v]
	if b.ver != l.subVer[v] || b.epoch != l.faults.Epoch() {
		*b = subtreeBound{ver: l.subVer[v], epoch: l.faults.Epoch()}
		for _, c := range l.topo.Node(v).Children {
			cFree, cInner := l.FreeSlots(c), 0.0
			if !l.topo.Node(c).IsMachine() {
				cFree, cInner = l.subtreeBound(c)
			}
			b.free, b.inner = b.free+cFree, max(b.inner, cInner, l.Occupancy(c))
		}
	} else if invariantsEnabled && boundSample.Add(1)%64 == 1 { // a sampled hit against a memo built anew
		fresh := l.Clone()
		clear(fresh.bounds)
		if fresh.subtreeBound(v); fresh.bounds[v] != *b {
			panic(fmt.Sprintf("invariant violated: vertex %d's bound memo holds %+v, a memo built anew %+v", v, *b, fresh.bounds[v]))
		}
	}
	return b.free, b.inner
}

// AddStochastic records a stochastic crossing demand on the link.
func (l *Ledger) AddStochastic(id topology.LinkID, d stats.Normal) {
	s := &l.links[id]
	s.sumMu += d.Mu
	s.sumVar += d.Var()
	s.stochastic++
	l.bumpSubtree(id)
}

// RemoveStochastic removes a previously added stochastic crossing demand.
func (l *Ledger) RemoveStochastic(id topology.LinkID, d stats.Normal) {
	s := &l.links[id]
	s.sumMu -= d.Mu
	s.sumVar -= d.Var()
	s.stochastic--
	clampState(s)
	l.bumpSubtree(id)
}

// AddDet records a deterministic reservation of b on the link.
func (l *Ledger) AddDet(id topology.LinkID, b float64) {
	l.links[id].det += b
	l.bumpSubtree(id)
}

// RemoveDet removes a previously added deterministic reservation.
func (l *Ledger) RemoveDet(id topology.LinkID, b float64) {
	s := &l.links[id]
	s.det -= b
	clampState(s)
	l.bumpSubtree(id)
}

// clampState zeroes tiny negative residues left by floating-point
// cancellation after demand removal.
func clampState(s *linkState) {
	if s.sumVar < 0 {
		s.sumVar = 0
	}
	if s.sumMu < 0 {
		s.sumMu = 0
	}
	if s.det < 0 {
		s.det = 0
	}
}

// LinkOutageProb returns the probability that the link's stochastic
// demand exceeds its sharing bandwidth S_L = C_L - D_L under the ledger's
// normal model: Pr(sum B_i > S_L) = 1 - Phi((S_L - sum mu) / sqrt(sum
// sigma^2)). For a link with no stochastic variance it is 0 when the
// deterministic load fits and 1 when it does not. Admitted state keeps
// this below eps on every link; after a degraded repair it is the honest
// per-link risk the tenant actually gets.
func (l *Ledger) LinkOutageProb(id topology.LinkID) float64 {
	s := &l.links[id]
	slack := s.cap - s.det - s.sumMu
	if s.sumVar <= 0 {
		if slack >= 0 {
			return 0
		}
		return 1
	}
	return 1 - stats.Phi(slack/math.Sqrt(s.sumVar))
}

// StochasticCount returns the number of stochastic demands on the link.
func (l *Ledger) StochasticCount(id topology.LinkID) int {
	return l.links[id].stochastic
}

// DetReserved returns the deterministic reservation D_L on the link.
func (l *Ledger) DetReserved(id topology.LinkID) float64 { return l.links[id].det }

// EffectiveStochastic returns the total effective bandwidth of the
// stochastic demands on the link, sum mu_i + c*sqrt(sum sigma_i^2) (the sum
// of the paper's effective amounts E_i^L).
func (l *Ledger) EffectiveStochastic(id topology.LinkID) float64 {
	s := &l.links[id]
	return s.sumMu + l.c*math.Sqrt(s.sumVar)
}

// MaxOccupancy returns the maximum occupancy ratio over all live links,
// the statistic the paper samples for Fig. 9. Links that are failed or
// stranded behind a failed link are skipped: their reservations are
// bookkeeping for jobs awaiting repair, not load the network carries. A
// topology without links (a single machine) returns 0.
func (l *Ledger) MaxOccupancy() float64 {
	maxOcc := 0.0
	for _, id := range l.topo.Links() {
		if !l.faults.Reachable(id) {
			continue
		}
		if o := l.Occupancy(id); o > maxOcc {
			maxOcc = o
		}
	}
	return maxOcc
}

// MaxOccupancyByLevel returns, for every link level of the tree, the
// maximum occupancy ratio among that level's links. Index 0 is the
// machine (host) links; the last index is the links just below the root.
// It locates which tier of the datacenter binds first.
func (l *Ledger) MaxOccupancyByLevel() []float64 {
	out := make([]float64, max(0, l.topo.Height()))
	for _, id := range l.topo.Links() {
		if !l.faults.Reachable(id) {
			continue
		}
		lvl := l.topo.Node(id).Level
		if o := l.Occupancy(id); o > out[lvl] {
			out[lvl] = o
		}
	}
	return out
}

// FreeSlots returns the number of empty VM slots on the machine. A machine
// that is failed, or unreachable behind a failed link, has none — so no
// allocator ever places a VM there.
func (l *Ledger) FreeSlots(m topology.NodeID) int {
	if !l.faults.Alive(m) {
		return 0
	}
	return l.topo.Node(m).Slots - l.used[m]
}

// SetOffline marks a machine in or out of service. Offline machines report
// zero free slots, so no allocator places VMs there; slots already in use
// keep their bookkeeping so releases stay consistent. It is equivalent to
// FailMachine/RestoreMachine on the fault overlay.
func (l *Ledger) SetOffline(m topology.NodeID, offline bool) {
	if offline {
		l.faults.FailMachine(m)
	} else {
		l.faults.RestoreMachine(m)
	}
}

// Offline reports whether the machine itself is failed (link-induced
// unreachability does not count; see Faults().Alive for the full check).
func (l *Ledger) Offline(m topology.NodeID) bool { return l.faults.MachineDown(m) }

// Faults exposes the ledger's fault overlay: runtime fail/restore of
// machines and links. Mutations through it immediately affect FreeSlots,
// LinkLive and every allocator decision on this ledger.
func (l *Ledger) Faults() *topology.Faults { return l.faults }

// LinkLive reports whether a link is usable: the link itself and every
// link above it on the path to the root are in service.
func (l *Ledger) LinkLive(id topology.LinkID) bool { return l.faults.Reachable(id) }

// UseSlots marks k slots on the machine as occupied. It panics if the
// machine lacks capacity, which would indicate an allocator bug.
func (l *Ledger) UseSlots(m topology.NodeID, k int) {
	if k < 0 || l.FreeSlots(m) < k {
		panic(fmt.Sprintf("core: UseSlots(%d, %d) with %d free", m, k, l.FreeSlots(m)))
	}
	l.used[m] += k
	l.bumpSubtree(m)
}

// ReleaseSlots returns k slots on the machine. It panics if more slots are
// released than were in use.
func (l *Ledger) ReleaseSlots(m topology.NodeID, k int) {
	if k < 0 || l.used[m] < k {
		panic(fmt.Sprintf("core: ReleaseSlots(%d, %d) with %d used", m, k, l.used[m]))
	}
	l.used[m] -= k
	l.bumpSubtree(m)
}

// TotalFreeSlots returns the number of empty VM slots in the datacenter.
func (l *Ledger) TotalFreeSlots() int {
	total := 0
	for _, m := range l.topo.Machines() {
		total += l.FreeSlots(m)
	}
	return total
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
