package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/stats"
	"repro/internal/topology"
)

// ManagerState is a complete, serializable snapshot of a Manager's
// mutable state: the ledger's per-link reservations and slot usage, the
// admitted jobs with their exact committed contributions, the fault
// overlay, the fault/repair counters, and the idempotency table.
//
// A state restored with NewManagerFromState reproduces the ledger
// bit-identically whichever way it travelled: the journal's snapshots
// store every float64 as its raw IEEE-754 bits (internal/wal), and
// GET /v1/state serves it as JSON, where Go marshals the shortest decimal
// that parses back to the same bits. The struct tags are that JSON form
// (and the form legacy snapshots are still read in). Repair latency
// telemetry is deliberately not part of the state — it is timing, not
// state, and resets on restart.
//
// Placement entries, contributions, per-VM demands, bindings and counters
// are the types the manager itself keeps them in: export and import clone
// (the state is a deep snapshot) and never convert.
type ManagerState struct {
	NextID       int64        `json:"next_id"`
	Links        []LinkRecord `json:"links"`
	Used         []int        `json:"used"`
	Jobs         []JobState   `json:"jobs,omitempty"`
	MachinesDown []int        `json:"machines_down,omitempty"`
	LinksDown    []int        `json:"links_down,omitempty"`
	Counters     CounterState `json:"counters"`
	Idem         IdemTable    `json:"idem,omitempty"`
}

// LinkRecord is one link's reservation bookkeeping (capacity comes from
// the immutable topology, not the state, which is why the ledger's
// linkState is a type of its own).
type LinkRecord struct {
	Det        float64 `json:"det,omitempty"`
	SumMu      float64 `json:"sum_mu,omitempty"`
	SumVar     float64 `json:"sum_var,omitempty"`
	Stochastic int     `json:"stochastic,omitempty"`
}

// JobState is one admitted job: its request, committed placement, the
// exact per-link contributions, and the weakened risk factor if a
// degraded repair applies — an Allocation flattened for the wire (ID is
// the int64 external readers index by, the request a spec).
type JobState struct {
	ID          int64            `json:"id"`
	Homog       *HomogSpec       `json:"homog,omitempty"`
	Hetero      []stats.Normal   `json:"hetero,omitempty"`
	Placement   []PlacementEntry `json:"placement"`
	Contribs    []Contribution   `json:"contribs,omitempty"`
	DegradedEps *float64         `json:"degraded_eps,omitempty"`
}

// HomogSpec is the wire form of a homogeneous request: Homogeneous with
// its demand flattened into one object beside n.
type HomogSpec struct {
	N     int     `json:"n"`
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// Request rebuilds the validated homogeneous request.
func (h HomogSpec) Request() (Homogeneous, error) {
	return NewHomogeneous(h.N, stats.Normal{Mu: h.Mu, Sigma: h.Sigma})
}

// HomogSpecOf converts a request to its wire form.
func HomogSpecOf(r Homogeneous) HomogSpec {
	return HomogSpec{N: r.N, Mu: r.Demand.Mu, Sigma: r.Demand.Sigma}
}

// cut returns n elements from the front of *slab, refilling it first
// when it holds fewer. An idempotency table's tens of thousands of one-
// and two-entry placements, which live and die together, are cut from
// shared slabs instead of being allocated one by one.
func cut[T any](slab *[]T, n int) []T {
	if n > len(*slab) {
		*slab = make([]T, max(n, 1024))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// CounterState is the deterministic part of the fault/repair counters:
// the manager counts in one, the state carries it, FailureStats embeds it.
type CounterState struct {
	MachineFailures uint64 `json:"machine_failures,omitempty"`
	MachineRestores uint64 `json:"machine_restores,omitempty"`
	LinkFailures    uint64 `json:"link_failures,omitempty"`
	LinkRestores    uint64 `json:"link_restores,omitempty"`
	NoopRepairs     uint64 `json:"noop_repairs,omitempty"`
	MovedRepairs    uint64 `json:"moved_repairs,omitempty"`
	DegradedRepairs uint64 `json:"degraded_repairs,omitempty"`
	FailedRepairs   uint64 `json:"failed_repairs,omitempty"`
}

// Add returns the field-wise sum of c and o — how the sharded router
// merges its pods' counters, which count disjoint machines, links and jobs.
func (c CounterState) Add(o CounterState) CounterState {
	c.MachineFailures += o.MachineFailures
	c.MachineRestores += o.MachineRestores
	c.LinkFailures += o.LinkFailures
	c.LinkRestores += o.LinkRestores
	c.NoopRepairs += o.NoopRepairs
	c.MovedRepairs += o.MovedRepairs
	c.DegradedRepairs += o.DegradedRepairs
	c.FailedRepairs += o.FailedRepairs
	return c
}

// IdemState is the durable outcome bound to one idempotency key, as the
// manager's table holds it and as the state carries it.
type IdemState struct {
	Op        MutationOp       `json:"op"`
	Job       int64            `json:"job,omitempty"`
	Placement []PlacementEntry `json:"placement,omitempty"` // alloc only
}

// Allocation is what a replayed alloc key answers with: the original ID
// and a copy of the placement — a response stub, not a live job record.
func (is IdemState) Allocation() *Allocation {
	return &Allocation{ID: JobID(is.Job), Placement: (&Placement{Entries: is.Placement}).Clone()}
}

// IdemTable is the idempotency contract: the bindings of a manager, of the
// sharded router (the union of its pods' plus the cross-pod ones) and of an
// exported state, and the only place that says what a repeated key answers.
type IdemTable map[string]IdemState

// Replay answers a call of op (on job, which only a release compares)
// made under key. Unbound, or no key: bound is false and the call
// executes. Bound by the same op: the stored outcome, to be answered
// without executing — for a fault op whatever its target, since a binding
// stores the op and not the machine or link. Bound by anything else:
// ErrIdemConflict.
func (t IdemTable) Replay(key string, op MutationOp, job JobID) (is IdemState, bound bool, err error) {
	if key != "" {
		is, bound = t[key]
	}
	if bound && (is.Op != op || op == OpRelease && JobID(is.Job) != job) {
		if is.Job == 0 { // a fault op
			return IdemState{}, true, fmt.Errorf("%w: key committed by %v", ErrIdemConflict, is.Op)
		}
		return IdemState{}, true, fmt.Errorf("%w: key committed by %v of job %d", ErrIdemConflict, is.Op, is.Job)
	}
	return is, bound, nil
}

// Bind stores the outcome of a committed mutation under its key, if it
// carries one: the op, the job, and for an admission a copy of the
// placement a replay answers with.
func (t IdemTable) Bind(mut Mutation) {
	if mut.IdemKey == "" {
		return
	}
	is := IdemState{Op: mut.Op, Job: int64(mut.Job)}
	if mut.Op == OpAlloc {
		is.Placement = mut.Placement.Clone().Entries
	}
	t[mut.IdemKey] = is
}

// Equal reports whether st and o are the same state: every field equal,
// floats by their bits (a one-ulp drift or a flipped zero sign is a
// difference), nil and empty slices and maps alike. A standby's mirror
// holds the state it recovers at every reset (and, under -tags invariants,
// at promotion) against the one it followed, and the tests compare states
// with it, so it is written out type by type and never reflects; a field
// added to any of the state types must be added to its equal method too,
// which TestSnapshotFieldsComplete (internal/wal) enforces.
func (st *ManagerState) Equal(o *ManagerState) bool {
	if st.NextID != o.NextID || st.Counters != o.Counters || len(st.Idem) != len(o.Idem) ||
		!slices.EqualFunc(st.Links, o.Links, LinkRecord.equal) ||
		!slices.EqualFunc(st.Jobs, o.Jobs, JobState.equal) ||
		!slices.Equal(st.Used, o.Used) ||
		!slices.Equal(st.MachinesDown, o.MachinesDown) ||
		!slices.Equal(st.LinksDown, o.LinksDown) {
		return false
	}
	for k, a := range st.Idem {
		if b, ok := o.Idem[k]; !ok || !a.equal(b) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// samePtr holds two optional values equal when both are absent or both
// are present and eq.
func samePtr[T any](a, b *T, eq func(T, T) bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	return eq(*a, *b)
}

func (a LinkRecord) equal(b LinkRecord) bool {
	return sameBits(a.Det, b.Det) && sameBits(a.SumMu, b.SumMu) && sameBits(a.SumVar, b.SumVar) &&
		a.Stochastic == b.Stochastic
}

func (a JobState) equal(b JobState) bool {
	return a.ID == b.ID &&
		samePtr(a.Homog, b.Homog, HomogSpec.equal) &&
		slices.EqualFunc(a.Hetero, b.Hetero, sameNormal) &&
		slices.EqualFunc(a.Placement, b.Placement, PlacementEntry.equal) &&
		slices.EqualFunc(a.Contribs, b.Contribs, Contribution.equal) &&
		samePtr(a.DegradedEps, b.DegradedEps, sameBits)
}

func (a HomogSpec) equal(b HomogSpec) bool {
	return a.N == b.N && sameBits(a.Mu, b.Mu) && sameBits(a.Sigma, b.Sigma)
}

func sameNormal(a, b stats.Normal) bool {
	return sameBits(a.Mu, b.Mu) && sameBits(a.Sigma, b.Sigma)
}

func (a Contribution) equal(b Contribution) bool {
	return a.Link == b.Link && a.Det == b.Det && sameBits(a.Mu, b.Mu) && sameBits(a.Sigma, b.Sigma)
}

func (a PlacementEntry) equal(b PlacementEntry) bool {
	return a.Machine == b.Machine && a.Count == b.Count && slices.Equal(a.VMs, b.VMs)
}

func (a IdemState) equal(b IdemState) bool {
	return a.Op == b.Op && a.Job == b.Job && slices.EqualFunc(a.Placement, b.Placement, PlacementEntry.equal)
}

// ExportState returns a deep snapshot of the manager's full mutable
// state, suitable for journal checkpoints and for differential
// comparison in tests. Jobs are sorted by ID and contributions by link,
// so two managers that executed the same operations export equal states.
func (m *Manager) ExportState() *ManagerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exportStateLocked()
}

func (m *Manager) exportStateLocked() *ManagerState {
	topo := m.led.Topology()
	st := &ManagerState{
		NextID:   int64(m.nextID),
		Links:    make([]LinkRecord, len(m.led.links)),
		Used:     append([]int(nil), m.led.used...),
		Counters: m.counters,
	}
	for i, s := range m.led.links {
		st.Links[i] = LinkRecord{Det: s.det, SumMu: s.sumMu, SumVar: s.sumVar, Stochastic: s.stochastic}
	}

	ids := make([]JobID, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := m.jobs[id]
		js := JobState{
			ID:        int64(id),
			Placement: a.Placement.Clone().Entries,
			Contribs:  cloneContribs(a.contribs),
		}
		sortContribs(js.Contribs)
		if a.homog != nil {
			h := HomogSpecOf(*a.homog)
			js.Homog = &h
		}
		if a.hetero != nil {
			js.Hetero = slices.Clone(a.hetero.Demands)
		}
		if eps, ok := m.degraded[id]; ok {
			e := eps
			js.DegradedEps = &e
		}
		st.Jobs = append(st.Jobs, js)
	}

	f := m.led.Faults()
	for _, mc := range topo.Machines() {
		if f.MachineDown(mc) {
			st.MachinesDown = append(st.MachinesDown, int(mc))
		}
	}
	for _, l := range topo.Links() {
		if f.LinkDown(l) {
			st.LinksDown = append(st.LinksDown, int(l))
		}
	}

	if len(m.idem) > 0 {
		st.Idem = make(IdemTable, len(m.idem))
		var slab []PlacementEntry
		for k, is := range m.idem {
			if is.Op == OpAlloc {
				is.Placement = cloneEntries(cut(&slab, len(is.Placement)), is.Placement)
			}
			st.Idem[k] = is
		}
	}
	return st
}

// NewManagerFromState rebuilds a manager over the topology from a
// state snapshot, restoring the ledger's reservation bookkeeping
// bit-identically. The snapshot is validated structurally (index ranges,
// slot bounds, job/slot consistency) so a corrupt snapshot yields an
// error rather than a manager that panics later.
func NewManagerFromState(topo *topology.Topology, eps float64, st *ManagerState, opts ...ManagerOption) (*Manager, error) {
	m, err := NewManager(topo, eps, opts...)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return m, nil
	}
	if len(st.Links) != topo.Len() || len(st.Used) != topo.Len() {
		return nil, fmt.Errorf("core: state has %d links / %d used entries, topology has %d nodes",
			len(st.Links), len(st.Used), topo.Len())
	}
	for i, s := range st.Links {
		if s.Stochastic < 0 || s.Det < 0 || s.SumMu < 0 || s.SumVar < 0 ||
			math.IsNaN(s.Det+s.SumMu+s.SumVar) || math.IsInf(s.Det+s.SumMu+s.SumVar, 0) {
			return nil, fmt.Errorf("core: link %d has invalid reservation state %+v", i, s)
		}
		m.led.links[i].det = s.Det
		m.led.links[i].sumMu = s.SumMu
		m.led.links[i].sumVar = s.SumVar
		m.led.links[i].stochastic = s.Stochastic
	}
	for i, u := range st.Used {
		n := topo.Node(topology.NodeID(i))
		if u < 0 || (!n.IsMachine() && u != 0) || u > n.Slots {
			return nil, fmt.Errorf("core: node %d has invalid used slots %d", i, u)
		}
		m.led.used[i] = u
	}

	for _, mc := range st.MachinesDown {
		id := topology.NodeID(mc)
		if id < 0 || int(id) >= topo.Len() || !topo.Node(id).IsMachine() {
			return nil, fmt.Errorf("core: failed node %d is not a machine", mc)
		}
		m.led.Faults().FailMachine(id)
	}
	for _, l := range st.LinksDown {
		id := topology.LinkID(l)
		if id < 0 || int(id) >= topo.Len() || topo.Node(topology.NodeID(id)).Parent == topology.None {
			return nil, fmt.Errorf("core: failed node %d has no uplink", l)
		}
		m.led.Faults().FailLink(id)
	}

	m.jobs = make(map[JobID]*Allocation, len(st.Jobs))
	m.idem = make(IdemTable, len(st.Idem))
	perMachine := make([]int, topo.Len())
	for _, js := range st.Jobs {
		id := JobID(js.ID)
		if id <= 0 || id > JobID(st.NextID) {
			return nil, fmt.Errorf("core: job id %d outside (0, %d]", js.ID, st.NextID)
		}
		if _, ok := m.jobs[id]; ok {
			return nil, fmt.Errorf("core: duplicate job id %d", js.ID)
		}
		a := &Allocation{ID: id, Placement: (&Placement{Entries: js.Placement}).Clone(), contribs: cloneContribs(js.Contribs)}
		switch {
		case js.Homog != nil && js.Hetero == nil:
			req, err := js.Homog.Request()
			if err != nil {
				return nil, fmt.Errorf("core: job %d: %w", js.ID, err)
			}
			a.homog = &req
		case js.Hetero != nil && js.Homog == nil:
			req, err := NewHeterogeneous(js.Hetero)
			if err != nil {
				return nil, fmt.Errorf("core: job %d: %w", js.ID, err)
			}
			a.hetero = &req
		default:
			return nil, fmt.Errorf("core: job %d must carry exactly one request kind", js.ID)
		}
		for _, e := range a.Placement.Entries {
			if e.Machine < 0 || int(e.Machine) >= topo.Len() || !topo.Node(e.Machine).IsMachine() || e.Count <= 0 {
				return nil, fmt.Errorf("core: job %d has invalid placement entry on node %d", js.ID, e.Machine)
			}
			perMachine[e.Machine] += e.Count
		}
		for _, c := range a.contribs {
			if c.Link < 0 || int(c.Link) >= topo.Len() {
				return nil, fmt.Errorf("core: job %d contribution on invalid link %d", js.ID, c.Link)
			}
		}
		if js.DegradedEps != nil {
			m.degraded[id] = *js.DegradedEps
		}
		m.jobs[id] = a
	}
	// Slot usage must equal the jobs' placements exactly, or a later
	// release would underflow the ledger.
	for i, want := range perMachine {
		if st.Used[i] != want {
			return nil, fmt.Errorf("core: machine %d uses %d slots but jobs place %d", i, st.Used[i], want)
		}
	}

	m.nextID = JobID(st.NextID)
	m.counters = st.Counters

	var slab []PlacementEntry // bindings are never dropped, so they can share
	for k, is := range st.Idem {
		if is.Op == OpAlloc {
			is.Placement = cloneEntries(cut(&slab, len(is.Placement)), is.Placement)
		} else {
			is.Placement = nil
		}
		m.idem[k] = is
	}
	return m, nil
}
