// Package daemon assembles one svcd node — the paper's network manager
// as a process: recover or open the state directory, wire the HTTP
// surface, serve, compact the logs in the background, promote a standby,
// and seal everything on shutdown. cmd/svcd runs it behind flags; the
// scenario runner and the tests start the same nodes in-process.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Config is one node's configuration: svcd's flags, with the topology
// parsed. Every node plans with core's default policy (min-max) and
// checkpoints at wal's default cadence.
type Config struct {
	Addr     string
	Topo     *topology.Topology
	Eps      float64
	StateDir string // empty: in-memory only
	NoSync   bool
	Role     string // "primary" (also "") or "standby"
	Follow   string // primary base URL, required for a standby
	Shards   int    // 0: unsharded; N: one pod-local shard per aggregation subtree
}

// journaled is one manager and the log it commits to: the unsharded
// node has one, a router one per pod, an in-memory node and a standby
// none (promotion gives the standby its first).
type journaled struct {
	mgr     *core.Manager
	journal *wal.Journal
}

// Daemon is one running node.
type Daemon struct {
	cfg       Config
	api       *httpapi.Server
	server    *http.Server
	listener  net.Listener
	serveErr  chan error
	stopTick  chan struct{}
	router    *shard.Router // non-nil with Shards; it owns the pod journals
	recovered int

	// roleMu guards what promotion replaces — the logs, the standby and
	// its follow loop — against the checkpoint ticker and shutdown.
	roleMu       sync.Mutex
	logs         []journaled
	standby      *replica.Standby
	followCancel context.CancelFunc
	followDone   chan struct{}
}

// New opens cfg's state and binds its address; nothing is served until
// Start. Every file it opened is closed again on an error return.
func New(cfg Config) (_ *Daemon, err error) {
	d := &Daemon{cfg: cfg, serveErr: make(chan error, 1), stopTick: make(chan struct{})}
	defer func() {
		if err != nil {
			d.closeFiles()
		}
	}()
	var walOpts []wal.Option
	if cfg.NoSync {
		walOpts = append(walOpts, wal.WithNoSync())
	}
	var wiring httpapi.Wiring
	switch cfg.Role {
	case "", "primary":
		if cfg.Follow != "" {
			return nil, errors.New("-follow requires -role standby")
		}
		var ctrl httpapi.Controller
		switch {
		case cfg.Shards > 0:
			if cfg.StateDir == "" {
				return nil, errors.New("-shards needs -state-dir (each pod keeps its own write-ahead log)")
			}
			d.router, err = shard.Open(cfg.StateDir, cfg.Topo, cfg.Eps, cfg.Shards, shard.Options{NoSync: cfg.NoSync})
			if err != nil {
				return nil, err
			}
			for i := 0; i < d.router.Shards(); i++ {
				d.logs = append(d.logs, journaled{d.router.Pod(i), d.router.PodJournal(i)})
			}
			ctrl = d.router
		case cfg.StateDir != "":
			mgr, journal, err := wal.Recover(cfg.StateDir, cfg.Topo, cfg.Eps, nil, walOpts...)
			if err != nil {
				return nil, err
			}
			d.logs = []journaled{{mgr, journal}}
			ctrl = mgr
		default:
			if ctrl, err = core.NewManager(cfg.Topo, cfg.Eps); err != nil {
				return nil, err
			}
		}
		d.recovered = ctrl.Running()
		wiring = d.primaryWiring(ctrl)
	case "standby":
		if cfg.Shards > 0 {
			return nil, errors.New("-shards requires -role primary (standbys follow one unsharded WAL)")
		}
		if cfg.StateDir == "" || cfg.Follow == "" {
			return nil, errors.New("-role standby needs -state-dir (the mirror) and -follow (the primary URL)")
		}
		d.standby, err = replica.New(replica.Config{
			Dir:     cfg.StateDir,
			Topo:    cfg.Topo,
			Eps:     cfg.Eps,
			Fetch:   httpapi.NewClient(cfg.Follow, nil).WALTail,
			WALOpts: walOpts,
			NoSync:  cfg.NoSync,
			// Stream resets build a fresh follower manager; re-point read
			// traffic at it (d.api is set before Start).
			OnReset: func(m *core.Manager) { d.api.Swap(d.standbyWiring(m)) },
		})
		if err != nil {
			return nil, err
		}
		wiring = d.standbyWiring(d.standby.Manager())
	default:
		return nil, fmt.Errorf("unknown role %q (want primary or standby)", cfg.Role)
	}
	d.api = httpapi.NewControllerServer(wiring.Controller)
	d.api.Swap(wiring)
	d.server = &http.Server{
		Handler:           d.api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if d.listener, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	return d, nil
}

// standbyWiring is the surface of a standby whose follower manager is
// mgr: reads from it, writes refused, promotion reachable, and the
// replication section reporting how far it trails.
func (d *Daemon) standbyWiring(mgr *core.Manager) httpapi.Wiring {
	s := d.standby
	return httpapi.Wiring{
		Controller: mgr,
		Standby:    true,
		Promote:    d.promote,
		Replication: func() *httpapi.ReplicationStatus {
			cur := s.Cursor()
			lag := s.Lag()
			return &httpapi.ReplicationStatus{
				Role: "standby", Epoch: s.Epoch(), Gen: cur.Gen,
				AppliedOff: cur.Off, DurableOff: cur.Off + lag.Bytes,
				LagBytes: lag.Bytes, LagRecords: lag.Records, Version: lag.Version,
			}
		},
	}
}

// primaryWiring is the surface of a primary over d.logs: the WAL section
// summed over the journals, the sharding section for a router, and — for
// the one unsharded journal — the replication tail, fencing and the
// replication section a standby and its promotion need.
func (d *Daemon) primaryWiring(ctrl httpapi.Controller) httpapi.Wiring {
	w := httpapi.Wiring{Controller: ctrl}
	logs := d.logs
	if len(logs) > 0 {
		w.WALStatus = func() httpapi.WALStatus {
			var ws httpapi.WALStatus
			for _, l := range logs {
				gs := l.journal.GroupCommitStats()
				ws.Gen = max(ws.Gen, l.journal.Gen())
				ws.Appended += l.journal.Appended()
				ws.Batches += gs.Batches
				ws.Records += gs.Records
				ws.MaxBatch = max(ws.MaxBatch, gs.MaxBatch)
			}
			if ws.Batches > 0 {
				ws.MeanBatch = float64(ws.Records) / float64(ws.Batches)
			}
			return ws
		}
	}
	if r := d.router; r != nil {
		w.Sharding = func() *httpapi.ShardingStatus {
			ss := &httpapi.ShardingStatus{Shards: r.Shards()}
			for _, st := range r.ShardStatuses() {
				ss.Pods = append(ss.Pods, httpapi.PodStatus(st))
			}
			return ss
		}
	} else if len(logs) == 1 {
		mgr, j := logs[0].mgr, logs[0].journal
		w.WALTail = j.Tail
		w.Fence = j.Fence
		w.Replication = func() *httpapi.ReplicationStatus {
			cur := j.DurableCursor()
			return &httpapi.ReplicationStatus{
				Role: "primary", Epoch: j.Epoch(), Gen: cur.Gen,
				DurableOff: cur.Off, Version: mgr.Version(),
			}
		}
	}
	return w
}

// URL is the node's base URL.
func (d *Daemon) URL() string { return "http://" + d.listener.Addr().String() }

// Recovered is the number of jobs the node booted with: what its state
// directory held (0 in memory and on a standby, which bootstraps from
// the primary's stream).
func (d *Daemon) Recovered() int { return d.recovered }

// ServeErr delivers the HTTP server's exit: a failure to serve, or
// http.ErrServerClosed once Shutdown or Crash stopped it.
func (d *Daemon) ServeErr() <-chan error { return d.serveErr }

// Start begins serving, compacting whatever logs the node has (or gains
// at promotion) in the background, and — on a standby — following the
// primary.
func (d *Daemon) Start() {
	go func() { d.serveErr <- d.server.Serve(d.listener) }()
	if d.cfg.StateDir != "" {
		go d.checkpointLoop()
	}
	if d.standby != nil {
		d.startFollow()
	}
}

// checkpointLoop snapshots each manager whose journal has accumulated
// enough records to make compaction worthwhile — pod by pod, so a hot
// pod snapshots on its own cadence.
func (d *Daemon) checkpointLoop() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-d.stopTick:
			return
		case <-t.C:
			d.roleMu.Lock()
			for i, l := range d.logs {
				if l.journal.NeedsCheckpoint() {
					if err := l.mgr.Checkpoint(); err != nil {
						log.Printf("svcd: checkpoint (log %d of %d): %v", i+1, len(d.logs), err)
					}
				}
			}
			d.roleMu.Unlock()
		}
	}
}

// startFollow launches (or relaunches) the standby follow loop. Callers
// hold roleMu except during single-threaded startup.
func (d *Daemon) startFollow() {
	s := d.standby
	ctx, cancel := context.WithCancel(context.Background())
	d.followCancel = cancel
	d.followDone = make(chan struct{})
	done := d.followDone
	go func() {
		defer close(done)
		if err := s.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("svcd: follow loop: %v", err)
		}
	}()
}

// stopFollow cancels the follow loop and waits it out. Callers hold
// roleMu.
func (d *Daemon) stopFollow() {
	if d.followCancel != nil {
		d.followCancel()
		<-d.followDone
		d.followCancel = nil
	}
}

// promote serves POST /v1/promote on a standby: catch up to the
// primary's durable tail, promote the follower into a journaled
// primary, swap it behind the HTTP surface, and fence the old primary.
func (d *Daemon) promote(ctx context.Context) (httpapi.PromoteResponse, error) {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	s := d.standby
	if s == nil {
		return httpapi.PromoteResponse{}, errors.New("this node is no longer a standby")
	}
	// Pause the follow loop first: promotion serializes with sync rounds,
	// so a parked long poll would otherwise stall its catch-up for a full
	// poll horizon.
	d.stopFollow()
	prom, err := s.Promote(ctx)
	if err != nil {
		d.startFollow() // still a standby: keep tracking the primary
		return httpapi.PromoteResponse{}, err
	}
	d.standby = nil
	d.logs = []journaled{{prom.Mgr, prom.Journal}}
	d.api.Swap(d.primaryWiring(prom.Mgr))
	// Best effort: a dead primary can't ack the fence, and doesn't need
	// it — its journal seam vetoes stale commits if it returns.
	go func() {
		fctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := httpapi.NewClient(d.cfg.Follow, nil).Fence(fctx, prom.Epoch); err != nil {
			log.Printf("svcd: fence old primary: %v", err)
		}
	}()
	c := prom.Cost
	log.Printf("svcd: promoted to primary at epoch %d (gen %d) in %v: drain %v, verify %v (%d bytes read), epoch %v",
		prom.Epoch, prom.Journal.Gen(), c.Drain+c.Verify+c.Epoch, c.Drain, c.Verify, c.VerifiedBytes, c.Epoch)
	return httpapi.PromoteResponse{
		Epoch: prom.Epoch, LagRecords: prom.Lag.Records,
		LagBytes: prom.Lag.Bytes, Version: prom.Mgr.Version(),
	}, nil
}

// Shutdown drains in-flight requests, then makes the final state durable:
// refuse new mutations, stop the listener, checkpoint, close the logs.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.api.SetDraining(true)
	err := d.server.Shutdown(ctx)
	close(d.stopTick)
	if serr := <-d.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	d.stopFollow()
	for _, l := range d.logs {
		// Skip the final checkpoint when the log has nothing new since the
		// last one (an empty rotation buys no recovery time) or the journal
		// is fenced (a deposed primary must not rotate).
		if l.journal.Appended() > 0 {
			if cerr := l.mgr.Checkpoint(); cerr != nil && !errors.Is(cerr, wal.ErrFenced) && err == nil {
				err = cerr
			}
		}
	}
	if cerr := d.closeFiles(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// closeFiles closes every file the node holds: the standby's mirror,
// the router's pod journals, or the journal.
func (d *Daemon) closeFiles() error {
	var err error
	if d.standby != nil {
		err = d.standby.Close()
	}
	if d.router != nil {
		err = errors.Join(err, d.router.Close())
	} else {
		for _, l := range d.logs {
			l.mgr.SetJournal(nil)
			err = errors.Join(err, l.journal.Close())
		}
	}
	d.logs = nil
	return err
}

// Crash kills a started node abruptly: no drain, no checkpoint, no log
// close. Connections drop, the background loops stop, and whatever the
// group commit made durable is what a successor recovers — the failover
// and restart paths must cope with exactly this. A crashed node is gone;
// it is not shut down afterwards.
func (d *Daemon) Crash() {
	d.server.Close()
	<-d.serveErr
	close(d.stopTick)
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	d.stopFollow()
}
