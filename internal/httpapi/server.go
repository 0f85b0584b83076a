// Package httpapi exposes the SVC network manager as a JSON-over-HTTP
// service — the deployable form of the paper's "network manager" component
// that receives tenant requests, performs admission control and VM
// allocation, and releases reservations when jobs finish.
//
// Endpoints (all JSON):
//
//	POST   /v1/allocations        admit a request; 201 with the placement,
//	                              409 when rejected for capacity
//	DELETE /v1/allocations/{id}   release an admitted job; 204 on success
//	POST   /v1/dryrun             report feasibility without committing
//	POST   /v1/headroom           how many copies of a request would fit
//	GET    /v1/status             datacenter-wide counters
//	GET    /v1/links              per-link reservation state, most loaded first
//	POST   /v1/faults             fail or restore a machine or link
//	POST   /v1/repairs            re-place displaced jobs (one or all); 409
//	                              for a job that cannot be repaired in place
//	GET    /v1/failures           fault and repair counters
//
// Idempotency-Key: the three mutating endpoints (allocate, release,
// fault) accept the header, and core.IdemTable decides what a repeated
// key answers, the same on svcd and on svcd -shards K. A
// key nothing committed executes. A key the same operation committed —
// for a release, of the same job — replays the original outcome (201 with
// the original placement, 204, 200) without executing. A key any other
// operation committed is refused with 409: an allocation's key on a
// release or a fault, a fail's key on its restore. The one reuse that
// still replays is the same fault operation on a different machine or
// link: a binding stores the operation and the job, not the target
// (storing it would change snapshot and /v1/state bytes), so it is
// answered 200 and the second target is left as it was.
package httpapi

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// maxBodyBytes caps request bodies; every endpoint's JSON fits well
// within it, and anything larger is a client bug or abuse.
const maxBodyBytes = 1 << 20

// IdempotencyHeader carries the client's idempotency key. Mutating
// requests (allocate, release, fault) that repeat a key replay the
// original outcome instead of re-executing; the binding is journaled with
// the mutation, so it survives a controller restart.
const IdempotencyHeader = "Idempotency-Key"

// AllocationRequest is the wire form of a tenant request; exactly one of
// the three shapes must be set:
//
//   - homogeneous SVC:      n, mu, sigma
//   - deterministic VC:     n, bandwidth
//   - heterogeneous SVC:    demands
type AllocationRequest struct {
	N         int          `json:"n,omitempty"`
	Mu        float64      `json:"mu,omitempty"`
	Sigma     float64      `json:"sigma,omitempty"`
	Bandwidth float64      `json:"bandwidth,omitempty"`
	Demands   []DemandSpec `json:"demands,omitempty"`
}

// DemandSpec is one VM's demand distribution on the wire.
type DemandSpec struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma,omitempty"`
}

// AllocationResponse reports an admitted placement.
type AllocationResponse struct {
	ID        int64            `json:"id"`
	VMs       int              `json:"vms"`
	Placement []PlacementEntry `json:"placement"`
}

// PlacementEntry is one machine's share of a placement in a response. It is
// not core.PlacementEntry: this API has always keyed the VM list vmIndices,
// where the exported state says vms.
type PlacementEntry struct {
	Machine int   `json:"machine"`
	Count   int   `json:"count"`
	VMs     []int `json:"vmIndices,omitempty"`
}

// Status reports datacenter-wide state.
type Status struct {
	Machines     int                `json:"machines"`
	TotalSlots   int                `json:"totalSlots"`
	FreeSlots    int                `json:"freeSlots"`
	RunningJobs  int                `json:"runningJobs"`
	MaxOccupancy float64            `json:"maxOccupancy"`
	Epsilon      float64            `json:"epsilon"`
	MachinesDown int                `json:"machinesDown,omitempty"`
	LinksDown    int                `json:"linksDown,omitempty"`
	DegradedJobs int                `json:"degradedJobs,omitempty"`
	Admission    *AdmissionStatus   `json:"admission,omitempty"`
	WAL          *WALStatus         `json:"wal,omitempty"`
	Replication  *ReplicationStatus `json:"replication,omitempty"`
	Sharding     *ShardingStatus    `json:"sharding,omitempty"`
}

// ShardingStatus reports the sharded control plane's layout and load.
// The daemon injects it (Wiring.Sharding) when running with -shards.
type ShardingStatus struct {
	Shards int         `json:"shards"`
	Pods   []PodStatus `json:"pods"`
}

// PodStatus is one shard's slice of the status surface.
type PodStatus struct {
	Shard        int     `json:"shard"`
	Root         int     `json:"root"`
	Jobs         int     `json:"jobs"`
	FreeSlots    int     `json:"freeSlots"`
	MaxOccupancy float64 `json:"maxOccupancy"`
}

// AdmissionStatus reports admissions and the plans behind them (see
// core.AdmissionStats): Locked counts committed admissions, Plans every
// plan run. The first five keys belonged to the snapshot-planned pipeline
// and are pinned in the /v1/status key set until its readers drop them.
type AdmissionStatus struct {
	// Deprecated: always 0.
	FastPath int64 `json:"fastPath"`
	// Deprecated: always 0.
	Revalidated int64 `json:"revalidated"`
	// Deprecated: always 0.
	Conflicts int64 `json:"conflicts"`
	// Deprecated: always 0.
	Retries int64 `json:"retries"`
	// Deprecated: always 0.
	Fallbacks int64 `json:"fallbacks"`

	Locked     int64   `json:"locked"`
	Plans      int64   `json:"plans"`
	MeanPlanMs float64 `json:"meanPlanMillis"`

	// Plan-cache counters: how admission planning reused memoized DP
	// tables (see core.AdmissionStats).
	PlanCacheHits          int64 `json:"planCacheHits"`
	PlanCacheMisses        int64 `json:"planCacheMisses"`
	PlanCacheInvalidations int64 `json:"planCacheInvalidations"`
	PlanCacheEvictions     int64 `json:"planCacheEvictions"`
}

// WALStatus reports write-ahead-log activity, including group-commit
// batching. The daemon injects it (Wiring.WALStatus) when journaling is on.
type WALStatus struct {
	Gen       uint64  `json:"gen"`
	Appended  int     `json:"appended"`
	Batches   int64   `json:"batches"`
	Records   int64   `json:"records"`
	MaxBatch  int64   `json:"maxBatch"`
	MeanBatch float64 `json:"meanBatch"`
}

// FaultRequest fails or restores one machine or one link; exactly one of
// Machine and Link must be set.
type FaultRequest struct {
	Machine *int `json:"machine,omitempty"`
	Link    *int `json:"link,omitempty"`
	Restore bool `json:"restore,omitempty"`
}

// FaultResponse lists the jobs displaced by the current fault set.
type FaultResponse struct {
	AffectedJobs []int64 `json:"affectedJobs"`
}

// RepairRequest names the job to repair; a null or absent job repairs
// every displaced job.
type RepairRequest struct {
	Job *int64 `json:"job,omitempty"`
}

// RepairResult reports one repair attempt on the wire.
type RepairResult struct {
	Job          int64            `json:"job"`
	Outcome      string           `json:"outcome"`
	MovedVMs     int              `json:"movedVMs"`
	EffectiveEps float64          `json:"effectiveEps"`
	ElapsedMs    float64          `json:"elapsedMillis"`
	Placement    []PlacementEntry `json:"placement,omitempty"`
}

// LinkStatus reports one link's reservation state.
type LinkStatus struct {
	Link              int     `json:"link"`
	Capacity          float64 `json:"capacityMbps"`
	Occupancy         float64 `json:"occupancy"`
	DetReserved       float64 `json:"detReservedMbps"`
	StochasticDemands int     `json:"stochasticDemands"`
}

// DryRunResponse reports feasibility without commitment.
type DryRunResponse struct {
	Feasible bool `json:"feasible"`
}

// HeadroomRequest asks how many copies of a homogeneous request fit.
type HeadroomRequest struct {
	N     int     `json:"n"`
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Limit int     `json:"limit,omitempty"`
}

// HeadroomResponse reports the capacity-planning count.
type HeadroomResponse struct {
	Fits int `json:"fits"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Controller is the admission-control surface the HTTP layer serves.
// Both the unsharded *core.Manager and the sharded shard.Router satisfy
// it, so one server binary fronts either control plane; the handlers
// never reach past this interface.
type Controller interface {
	AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error)
	AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error)
	Release(id core.JobID, opts ...core.CallOption) error
	CanAllocateHomog(req core.Homogeneous) bool
	CanAllocateHetero(req core.Heterogeneous) bool
	Headroom(req core.Homogeneous, limit int) (int, error)

	Topology() *topology.Topology
	Epsilon() float64
	FreeSlots() int
	Running() int
	MaxOccupancy() float64
	AdmissionStats() core.AdmissionStats
	FailureStats() core.FailureStats
	LinkLoads() []core.LinkLoad // a fresh slice: the caller owns it and may reorder it
	ExportState() *core.ManagerState

	FailMachine(id topology.NodeID, opts ...core.CallOption) ([]core.JobID, error)
	RestoreMachine(id topology.NodeID, opts ...core.CallOption) error
	FailLink(id topology.LinkID, opts ...core.CallOption) ([]core.JobID, error)
	RestoreLink(id topology.LinkID, opts ...core.CallOption) error
	AffectedJobs() []core.JobID
	RepairJob(id core.JobID) (core.RepairResult, error)
	RepairAll() ([]core.RepairResult, error)
}

// Wiring is everything a Server answers from: the controller, the
// standby gate and the optional seams the daemon injects (closures keep
// this package free of a wal, shard or replica dependency; the tail chunk
// is wal's own type). It is one value behind one atomic pointer: a
// handler loads it once, so a request sees the node wholly before or
// wholly after a promotion or a standby's stream reset, never a new
// manager beside the old role's seams.
type Wiring struct {
	Controller Controller
	// Standby refuses writes with 503 (clients rotate to the primary);
	// reads serve from the follower manager, and the promote/fence
	// endpoints stay reachable so an operator can effect the failover.
	Standby bool

	// Sections of /v1/status; a nil provider leaves its key out.
	WALStatus   func() WALStatus
	Sharding    func() *ShardingStatus
	Replication func() *ReplicationStatus

	// Replication endpoints; a nil seam answers 501.
	WALTail WALTail                                            // GET /v1/wal
	Fence   func(epoch uint64) error                           // POST /v1/fence
	Promote func(ctx context.Context) (PromoteResponse, error) // POST /v1/promote
}

// Server wraps a network manager with the HTTP interface.
type Server struct {
	wiring   atomic.Pointer[Wiring]
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewServer returns a server over the unsharded manager.
func NewServer(mgr *core.Manager) *Server { return NewControllerServer(mgr) }

// NewControllerServer returns a server over any Controller — an
// unsharded manager or a sharded router — with no seam installed.
func NewControllerServer(c Controller) *Server {
	s := &Server{mux: http.NewServeMux()}
	s.Swap(Wiring{Controller: c})
	s.mux.HandleFunc("POST /v1/allocations", s.handleAllocate)
	s.mux.HandleFunc("DELETE /v1/allocations/{id}", s.handleRelease)
	s.mux.HandleFunc("POST /v1/dryrun", s.handleDryRun)
	s.mux.HandleFunc("POST /v1/headroom", s.handleHeadroom)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/links", s.handleLinks)
	s.mux.HandleFunc("POST /v1/faults", s.handleFault)
	s.mux.HandleFunc("POST /v1/repairs", s.handleRepair)
	s.mux.HandleFunc("GET /v1/failures", s.handleFailures)
	s.mux.HandleFunc("GET /v1/state", s.handleState)
	s.mux.HandleFunc("GET /v1/wal", s.handleWALTail)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/fence", s.handleFence)
	return s
}

// Swap re-points the server at w in one store — boot-time seams, a
// standby's stream reset and promotion all go through it. In-flight
// requests finish against the wiring they loaded.
func (s *Server) Swap(w Wiring) { s.wiring.Store(&w) }

// manager returns the controller serving requests right now.
func (s *Server) manager() Controller { return s.wiring.Load().Controller }

// SetDraining switches the server in or out of drain mode. While
// draining, every non-GET request is refused with 503 and a Retry-After
// hint so clients fail over; reads keep working until shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the http.Handler serving the API.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && !controlPath(r.URL.Path) {
			if s.draining.Load() {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
				return
			}
			if s.wiring.Load().Standby {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, errors.New("standby: this node is not the primary"))
				return
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		s.mux.ServeHTTP(w, r)
	})
}

// controlPath lists the failover-control endpoints that bypass the
// drain and standby gates: promotion targets a standby by design, and
// fencing targets a primary that may already be draining.
func controlPath(path string) bool {
	return path == "/v1/promote" || path == "/v1/fence"
}

// buildRequests converts the wire request into a core request, returning
// exactly one of the two supported kinds.
func (r *AllocationRequest) build() (homog *core.Homogeneous, hetero *core.Heterogeneous, err error) {
	switch {
	case len(r.Demands) > 0:
		demands := make([]stats.Normal, len(r.Demands))
		for i, d := range r.Demands {
			demands[i] = stats.Normal{Mu: d.Mu, Sigma: d.Sigma}
		}
		req, err := core.NewHeterogeneous(demands)
		if err != nil {
			return nil, nil, err
		}
		return nil, &req, nil
	case r.Bandwidth > 0:
		req, err := core.NewDeterministic(r.N, r.Bandwidth)
		if err != nil {
			return nil, nil, err
		}
		return &req, nil, nil
	default:
		req, err := core.NewHomogeneous(r.N, stats.Normal{Mu: r.Mu, Sigma: r.Sigma})
		if err != nil {
			return nil, nil, err
		}
		return &req, nil, nil
	}
}

func (s *Server) handleAllocate(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire AllocationRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	homog, hetero, err := wire.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := req.Header.Get(IdempotencyHeader)
	var alloc *core.Allocation
	if homog != nil {
		alloc, err = mgr.AllocateHomog(*homog, core.WithIdemKey(key))
	} else {
		alloc, err = mgr.AllocateHetero(*hetero, core.WithIdemKey(key))
	}
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, AllocationResponse{
		ID: int64(alloc.ID), VMs: alloc.Placement.TotalVMs(), Placement: wirePlacement(alloc.Placement),
	})
}

// wirePlacement converts a placement to its wire form (nil when empty).
func wirePlacement(p core.Placement) []PlacementEntry {
	var out []PlacementEntry
	for _, e := range p.Entries {
		out = append(out, PlacementEntry{Machine: int(e.Machine), Count: e.Count, VMs: e.VMs})
	}
	return out
}

func (s *Server) handleRelease(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	id, err := strconv.ParseInt(req.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad allocation id: %w", err))
		return
	}
	key := req.Header.Get(IdempotencyHeader)
	if err := mgr.Release(core.JobID(id), core.WithIdemKey(key)); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDryRun(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire AllocationRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	homog, hetero, err := wire.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	feasible := false
	if homog != nil {
		feasible = mgr.CanAllocateHomog(*homog)
	} else {
		feasible = mgr.CanAllocateHetero(*hetero)
	}
	writeJSON(w, http.StatusOK, DryRunResponse{Feasible: feasible})
}

func (s *Server) handleHeadroom(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire HeadroomRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	hreq, err := core.NewHomogeneous(wire.N, stats.Normal{Mu: wire.Mu, Sigma: wire.Sigma})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fits, err := mgr.Headroom(hreq, wire.Limit)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, HeadroomResponse{Fits: fits})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	wiring := s.wiring.Load()
	mgr := wiring.Controller
	topo := mgr.Topology()
	fstats := mgr.FailureStats()
	adm := mgr.AdmissionStats()
	st := Status{
		Machines:     len(topo.Machines()),
		TotalSlots:   topo.TotalSlots(),
		FreeSlots:    mgr.FreeSlots(),
		RunningJobs:  mgr.Running(),
		MaxOccupancy: mgr.MaxOccupancy(),
		Epsilon:      mgr.Epsilon(),
		MachinesDown: fstats.MachinesDown,
		LinksDown:    fstats.LinksDown,
		DegradedJobs: fstats.DegradedJobs,
		Admission: &AdmissionStatus{
			Locked:     adm.Locked,
			Plans:      adm.Plan.Count,
			MeanPlanMs: float64(adm.Plan.Mean()) / 1e6,

			PlanCacheHits:          adm.PlanCacheHits,
			PlanCacheMisses:        adm.PlanCacheMisses,
			PlanCacheInvalidations: adm.PlanCacheInvalidations,
			PlanCacheEvictions:     adm.PlanCacheEvictions,
		},
	}
	if wiring.WALStatus != nil {
		ws := wiring.WALStatus()
		st.WAL = &ws
	}
	if wiring.Replication != nil {
		st.Replication = wiring.Replication()
	}
	if wiring.Sharding != nil {
		st.Sharding = wiring.Sharding()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFault(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire FaultRequest
	if err := decodeJSON(req, &wire); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	if (wire.Machine == nil) == (wire.Link == nil) {
		writeError(w, http.StatusBadRequest, errors.New("set exactly one of machine and link"))
		return
	}
	// Whether the target is a machine or has an uplink is the
	// controller's to judge: it answers core.ErrBadRequest, a 400.
	key := core.WithIdemKey(req.Header.Get(IdempotencyHeader))
	var (
		affected []core.JobID
		err      error
	)
	switch {
	case wire.Machine != nil:
		id := topology.NodeID(*wire.Machine)
		if wire.Restore {
			err = mgr.RestoreMachine(id, key)
		} else {
			affected, err = mgr.FailMachine(id, key)
		}
	default:
		id := topology.LinkID(*wire.Link)
		if wire.Restore {
			err = mgr.RestoreLink(id, key)
		} else {
			affected, err = mgr.FailLink(id, key)
		}
	}
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	if wire.Restore {
		affected = mgr.AffectedJobs()
	}
	resp := FaultResponse{AffectedJobs: make([]int64, 0, len(affected))}
	for _, id := range affected {
		resp.AffectedJobs = append(resp.AffectedJobs, int64(id))
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireRepair converts one repair outcome to its wire form.
func wireRepair(res core.RepairResult) RepairResult {
	return RepairResult{
		Job:          int64(res.Job),
		Outcome:      res.Outcome.String(),
		MovedVMs:     res.MovedVMs,
		EffectiveEps: res.EffectiveEps,
		ElapsedMs:    float64(res.Elapsed) / 1e6,
		Placement:    wirePlacement(res.Placement),
	}
}

func (s *Server) handleRepair(w http.ResponseWriter, req *http.Request) {
	mgr := s.manager()
	var wire RepairRequest
	if err := decodeJSON(req, &wire); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, statusOf(err), err)
		return
	}
	if wire.Job != nil {
		res, err := mgr.RepairJob(core.JobID(*wire.Job))
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, []RepairResult{wireRepair(res)})
		return
	}
	results, err := mgr.RepairAll()
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	out := make([]RepairResult, 0, len(results))
	for _, res := range results {
		out = append(out, wireRepair(res))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFailures(w http.ResponseWriter, _ *http.Request) {
	mgr := s.manager()
	writeJSON(w, http.StatusOK, mgr.FailureStats())
}

// handleState exports the manager's full serializable state — the same
// snapshot the WAL checkpoints — so external tooling (scenario runners,
// differential tests, state inspectors) can compare a live daemon
// bit-for-bit against an offline manager. Floats round-trip exactly
// through JSON (see core.ManagerState).
func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	mgr := s.manager()
	writeJSON(w, http.StatusOK, mgr.ExportState())
}

// handleLinks lists links most loaded first; ?limit=N keeps the first N,
// and a bad limit is refused before anything is read.
func (s *Server) handleLinks(w http.ResponseWriter, req *http.Request) {
	limit := -1
	if q := req.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	loads := s.manager().LinkLoads()
	if limit < 0 || limit >= len(loads) {
		slices.SortFunc(loads, moreLoaded)
	} else {
		loads = topLoads(loads, limit)
	}
	out := make([]LinkStatus, 0, len(loads))
	for _, ll := range loads {
		out = append(out, LinkStatus{
			Link:              int(ll.Link),
			Capacity:          ll.Capacity,
			Occupancy:         ll.Occupancy,
			DetReserved:       ll.DetLoad,
			StochasticDemands: ll.Stochastic,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// moreLoaded is the order of /v1/links: occupancy descending, equal
// occupancies by ascending link id — total, so one state has one answer.
func moreLoaded(a, b core.LinkLoad) int {
	return cmp.Or(cmp.Compare(b.Occupancy, a.Occupancy), cmp.Compare(a.Link, b.Link))
}

// topLoads moves the k first loads under moreLoaded to the front, in
// order, and returns them: one pass that keeps top the sorted best of the
// loads seen (it overwrites only those), so nothing is allocated and a
// load outside the top costs one compare.
func topLoads(loads []core.LinkLoad, k int) []core.LinkLoad {
	top := loads[:0]
	if k == 0 {
		return top
	}
	for _, ll := range loads {
		if len(top) == k && moreLoaded(ll, top[k-1]) >= 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, ll, moreLoaded)
		top = slices.Insert(top[:min(len(top), k-1)], i, ll)
	}
	return top
}

func decodeJSON(req *http.Request, v any) error {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errTooLarge
		}
		return fmt.Errorf("%w: %w", errBadBody, err)
	}
	return nil
}

var (
	// errTooLarge marks a request body over maxBodyBytes: 413 rather than
	// a generic 400.
	errTooLarge = errors.New("request body too large")
	// errBadBody marks a request body that does not decode.
	errBadBody = errors.New("decode request")
)

// statusOf is the one mapping from an error — a controller's or
// decodeJSON's — to the status it is answered with. Controllers report
// through core's sentinels (a sharded router wraps them too; this package
// may not import it), and what matches none of them is the server's fault.
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrNoCapacity), errors.Is(err, core.ErrIdemConflict):
		return http.StatusConflict
	case errors.Is(err, core.ErrBadRequest), errors.Is(err, errBadBody):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, core.ErrJournal):
		return http.StatusServiceUnavailable
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding to a ResponseWriter can only fail on a broken connection;
	// there is nothing useful to do with the error at that point.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
