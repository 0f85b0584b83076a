package scenario

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/httpapi"
	"repro/internal/shard"
	"repro/internal/topology"
)

// Backend is the runner seam: the engine drives exactly the same call
// sequence against an in-process controller (SimBackend) and a live
// svcd daemon over HTTP (LiveBackend), so the two must agree on every
// admission outcome — the differential test asserts precisely that.
type Backend interface {
	Name() string
	// Allocate submits one admission request; a capacity rejection is
	// reported via AdmitResult.Admitted, not an error.
	Allocate(req core.Homogeneous) (AdmitResult, error)
	Release(id int64) error
	// Apply injects one fault-schedule event. The engine pre-filters
	// no-op events, so every call changes fault state.
	Apply(ev Event) error
	// RepairAll re-places every displaced job, in job-ID order.
	RepairAll() ([]Repair, error)
	Stats() (Stats, error)
	// State exports the manager's full serializable state.
	State() (*core.ManagerState, error)
	Close() error
}

// Failoverer is the optional backend capability behind chaos.failovers:
// crash the controller's primary and promote its hot standby. The
// datacenter state (jobs, placements, reservations, idempotency table)
// must survive the switch bit-identically; a backend whose failover
// loses or doubles state will trip the engine's conservation mirror at
// the next sample.
type Failoverer interface {
	Failover() error
}

// AdmitResult is one admission outcome.
type AdmitResult struct {
	Admitted  bool
	ID        int64
	Placement []core.PlacementEntry
}

// Repair is one repair outcome ("noop" | "moved" | "degraded" |
// "failed"; failed jobs are evicted server-side).
type Repair struct {
	ID        int64
	Outcome   string
	Placement []core.PlacementEntry
}

// Stats is the backend state the engine samples.
type Stats struct {
	Running      int
	FreeSlots    int
	MaxOccupancy float64
}

// SimBackend drives a controller in-process, through the same
// httpapi.Controller seam the daemon serves: the unsharded core.Manager
// (the fast, deterministic offline runner) or the sharded shard.Router
// over pod-local WALs. The two differ only in how a failover produces
// the successor controller.
type SimBackend struct {
	name string
	ctrl httpapi.Controller
	// failover retires the current controller and returns its successor.
	failover func(old httpapi.Controller) (httpapi.Controller, error)
}

// NewSimBackend builds the offline backend over an unsharded manager.
// Its failover models a controller switch: the successor is rebuilt from
// the predecessor's exported state, exactly as a promoted standby
// reconstructs it from the replicated WAL. Job IDs, reservations, and
// the idempotency table all carry over, so admissions after the switch
// are indistinguishable from a run without one.
func NewSimBackend(topo *topology.Topology, eps float64) (*SimBackend, error) {
	mgr, err := core.NewManager(topo, eps)
	if err != nil {
		return nil, err
	}
	return &SimBackend{name: "sim", ctrl: mgr, failover: func(old httpapi.Controller) (httpapi.Controller, error) {
		return core.NewManagerFromState(topo, eps, old.ExportState())
	}}, nil
}

// NewShardBackend opens a sharded router under dir (mode is "" | strict
// | fast; pod WALs open nosync — scenarios measure the controller, not
// the disk). Its failover restarts the control plane from its own
// durable state — close the router, reopen from the same directory,
// replaying every pod WAL and resolving the cross-pod intent log —
// rather than switching to a hot standby, so failover scenarios double
// as recovery soak tests.
func NewShardBackend(dir string, topo *topology.Topology, eps float64, shards int, mode string) (*SimBackend, error) {
	m, err := shard.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	open := func() (httpapi.Controller, error) {
		return shard.Open(dir, topo, eps, shards, shard.Options{Mode: m, NoSync: true})
	}
	r, err := open()
	if err != nil {
		return nil, err
	}
	return &SimBackend{name: "shard", ctrl: r, failover: func(old httpapi.Controller) (httpapi.Controller, error) {
		if err := old.(*shard.Router).Close(); err != nil {
			return nil, err
		}
		return open()
	}}, nil
}

// Failover switches to the successor controller. Jobs, reservations,
// the idempotency table, and (sharded) in-flight cross-pod intents must
// all survive — the engine's conservation mirror checks exactly that at
// the next sample.
func (b *SimBackend) Failover() error {
	next, err := b.failover(b.ctrl)
	if err != nil {
		return fmt.Errorf("scenario: %s failover: %w", b.name, err)
	}
	b.ctrl = next
	return nil
}

func (b *SimBackend) Name() string { return b.name }

func (b *SimBackend) Allocate(req core.Homogeneous) (AdmitResult, error) {
	alloc, err := b.ctrl.AllocateHomog(req)
	if errors.Is(err, core.ErrNoCapacity) {
		return AdmitResult{}, nil
	}
	if err != nil {
		return AdmitResult{}, err
	}
	// Cloned: the engine keeps the entries for the life of the job.
	return AdmitResult{Admitted: true, ID: int64(alloc.ID), Placement: slices.Clone(alloc.Placement.Entries)}, nil
}

func (b *SimBackend) Release(id int64) error {
	return b.ctrl.Release(core.JobID(id))
}

func (b *SimBackend) Apply(ev Event) error {
	var err error
	switch ev.Kind {
	case EvFailMachine:
		_, err = b.ctrl.FailMachine(ev.Node)
	case EvRestoreMachine:
		err = b.ctrl.RestoreMachine(ev.Node)
	case EvFailLink:
		_, err = b.ctrl.FailLink(ev.Node)
	case EvRestoreLink:
		err = b.ctrl.RestoreLink(ev.Node)
	default:
		err = fmt.Errorf("scenario: unknown event kind %v", ev.Kind)
	}
	return err
}

// RepairAll re-places every displaced job. A sharded router skips
// cross-pod jobs (see shard.ErrCrossPodRepair); they keep their
// reservations until released or killed.
func (b *SimBackend) RepairAll() ([]Repair, error) {
	results, err := b.ctrl.RepairAll()
	if err != nil {
		return nil, err
	}
	out := make([]Repair, len(results))
	for i, r := range results {
		out[i] = Repair{ID: int64(r.Job), Outcome: r.Outcome.String(), Placement: slices.Clone(r.Placement.Entries)}
	}
	return out, nil
}

func (b *SimBackend) Stats() (Stats, error) {
	return Stats{
		Running:      b.ctrl.Running(),
		FreeSlots:    b.ctrl.FreeSlots(),
		MaxOccupancy: b.ctrl.MaxOccupancy(),
	}, nil
}

func (b *SimBackend) State() (*core.ManagerState, error) {
	return b.ctrl.ExportState(), nil
}

// Close releases what the controller holds: a router's pod WALs and
// intent log; an unsharded manager holds nothing.
func (b *SimBackend) Close() error {
	if r, ok := b.ctrl.(*shard.Router); ok {
		return r.Close()
	}
	return nil
}

// LiveBackend drives a running svcd daemon through the HTTP client,
// exercising the wire protocol, the admission pipeline, the faults and
// repair endpoints, and (when the daemon journals) the WAL. The daemon
// is either somebody else's (NewLiveBackend) or the backend's own
// (StartLive): internal/daemon nodes, the same assembly svcd runs.
type LiveBackend struct {
	client *httpapi.Client
	ctx    context.Context

	// Owned nodes, nil when the daemon is external. A failover pair lays
	// out primary/ and standby-N/ beneath cfg.StateDir.
	cfg      daemon.Config
	primary  *daemon.Daemon
	standby  *daemon.Daemon
	standbys int
}

// NewLiveBackend wraps an svcd base URL ("http://host:port").
func NewLiveBackend(base string) *LiveBackend {
	return &LiveBackend{
		client: httpapi.NewClient(base, &http.Client{}),
		ctx:    context.Background(),
	}
}

// StartLive starts the daemon svcd runs on a loopback port — nosync:
// scenarios measure the controller, not the disk — and returns a backend
// that owns it. cfg carries Topo, Eps, StateDir (empty: in memory),
// Shards and ShardMode. With pair, the node is a journaled primary with
// a real -role standby node following it, and Failover is what an
// operator does: promote the standby, crash the old primary.
func StartLive(cfg daemon.Config, pair bool) (*LiveBackend, error) {
	cfg.Addr, cfg.NoSync = "127.0.0.1:0", true
	pcfg := cfg
	if pair {
		if cfg.StateDir == "" {
			return nil, errors.New("scenario: a failover pair needs a state dir (the WAL is the replication stream)")
		}
		pcfg.StateDir = filepath.Join(cfg.StateDir, "primary")
	}
	primary, err := daemon.New(pcfg)
	if err != nil {
		return nil, err
	}
	primary.Start()
	b := NewLiveBackend(primary.URL())
	b.cfg, b.primary = cfg, primary
	if pair {
		if err := b.startStandby(); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// startStandby starts a fresh standby node behind the current primary.
func (b *LiveBackend) startStandby() error {
	b.standbys++
	cfg := b.cfg
	cfg.StateDir = filepath.Join(b.cfg.StateDir, fmt.Sprintf("standby-%d", b.standbys))
	cfg.Role, cfg.Follow = "standby", b.primary.URL()
	s, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	s.Start()
	b.standby = s
	return nil
}

// Failover switches controllers the way production does: POST
// /v1/promote on the standby (it catches up to the primary's durable
// tail, takes over its mirror and fences the old primary), crash the old
// primary, re-point the client at the promoted node, and start a fresh
// standby behind it so the next failover has somewhere to go.
func (b *LiveBackend) Failover() error {
	if b.standby == nil {
		return errors.New("scenario: live backend has no standby to fail over to")
	}
	if _, err := httpapi.NewClient(b.standby.URL(), nil).Promote(b.ctx); err != nil {
		return fmt.Errorf("scenario: promote standby: %w", err)
	}
	b.primary.Crash()
	b.primary, b.standby = b.standby, nil
	b.client = httpapi.NewClient(b.primary.URL(), &http.Client{})
	return b.startStandby()
}

// Close shuts down the nodes the backend owns — the standby first, so
// its parked long poll does not hold the primary's drain — sealing their
// state directories as a SIGTERM would.
func (b *LiveBackend) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	for _, d := range []*daemon.Daemon{b.standby, b.primary} {
		if d != nil {
			if cerr := d.Shutdown(ctx); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	b.standby, b.primary = nil, nil
	return err
}

func (b *LiveBackend) Name() string { return "live" }

func (b *LiveBackend) Allocate(req core.Homogeneous) (AdmitResult, error) {
	wire := httpapi.AllocationRequest{N: req.N}
	if req.Deterministic() {
		wire.Bandwidth = req.Demand.Mu
	} else {
		wire.Mu = req.Demand.Mu
		wire.Sigma = req.Demand.Sigma
	}
	resp, err := b.client.Allocate(b.ctx, wire)
	if httpapi.IsNoCapacity(err) {
		return AdmitResult{}, nil
	}
	if err != nil {
		return AdmitResult{}, err
	}
	return AdmitResult{Admitted: true, ID: resp.ID, Placement: fromWire(resp.Placement)}, nil
}

// fromWire converts a response's placement to core's entries.
func fromWire(wire []httpapi.PlacementEntry) []core.PlacementEntry {
	var out []core.PlacementEntry
	for _, e := range wire {
		out = append(out, core.PlacementEntry{Machine: topology.NodeID(e.Machine), Count: e.Count, VMs: e.VMs})
	}
	return out
}

func (b *LiveBackend) Release(id int64) error {
	return b.client.Release(b.ctx, id)
}

func (b *LiveBackend) Apply(ev Event) error {
	node := int(ev.Node)
	req := httpapi.FaultRequest{}
	switch ev.Kind {
	case EvFailMachine:
		req.Machine = &node
	case EvRestoreMachine:
		req.Machine = &node
		req.Restore = true
	case EvFailLink:
		req.Link = &node
	case EvRestoreLink:
		req.Link = &node
		req.Restore = true
	default:
		return fmt.Errorf("scenario: unknown event kind %v", ev.Kind)
	}
	_, err := b.client.Fault(b.ctx, req)
	return err
}

func (b *LiveBackend) RepairAll() ([]Repair, error) {
	results, err := b.client.RepairAll(b.ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Repair, len(results))
	for i, r := range results {
		out[i] = Repair{ID: r.Job, Outcome: r.Outcome, Placement: fromWire(r.Placement)}
	}
	return out, nil
}

func (b *LiveBackend) Stats() (Stats, error) {
	st, err := b.client.Status(b.ctx)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Running:      st.RunningJobs,
		FreeSlots:    st.FreeSlots,
		MaxOccupancy: st.MaxOccupancy,
	}, nil
}

func (b *LiveBackend) State() (*core.ManagerState, error) {
	st, err := b.client.State(b.ctx)
	if err != nil {
		return nil, err
	}
	return &st, nil
}
