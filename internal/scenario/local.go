package scenario

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/wal"
)

// LocalServer is an in-process svcd: a manager (journaled when StateDir
// is set) behind the real HTTP API on a loopback port. The live runner
// uses it when no -addr is given, so "run against a daemon" needs no
// out-of-process setup, and the differential test uses it to compare a
// wire-driven WAL-backed controller against the offline backend.
type LocalServer struct {
	URL string
	Mgr *core.Manager

	api      *httpapi.Server
	journal  *wal.Journal
	router   *shard.Router // non-nil for a sharded server; Mgr is nil then
	server   *http.Server
	listener net.Listener
	serveErr chan error
}

// LocalConfig assembles a LocalServer.
type LocalConfig struct {
	Topo *topology.Topology
	Eps  float64
	// StateDir enables the write-ahead log (with group commit); the
	// scenario runner always opens it nosync — scenarios measure the
	// controller, not the disk.
	StateDir string
	// Shards > 0 serves the sharded control plane (requires StateDir for
	// the pod WALs); ShardMode is "" (strict) | strict | fast.
	Shards    int
	ShardMode string
}

// StartLocal builds and serves an in-process daemon.
func StartLocal(cfg LocalConfig) (*LocalServer, error) {
	if cfg.Shards > 0 {
		return startLocalSharded(cfg)
	}
	var mgr *core.Manager
	var journal *wal.Journal
	var err error
	if cfg.StateDir != "" {
		mgr, journal, err = wal.Recover(cfg.StateDir, cfg.Topo, cfg.Eps, nil, wal.WithNoSync())
	} else {
		mgr, err = core.NewManager(cfg.Topo, cfg.Eps)
	}
	if err != nil {
		return nil, err
	}
	ls, err := serveLocal(mgr, journal)
	if err != nil && journal != nil {
		journal.Close()
	}
	return ls, err
}

// openRouter opens cfg's sharded control plane under dir. Scenarios
// measure the controller, not the disk, so pod WALs open nosync.
func openRouter(dir string, cfg LocalConfig) (*shard.Router, error) {
	mode, err := shard.ParseMode(cfg.ShardMode)
	if err != nil {
		return nil, err
	}
	return shard.Open(dir, cfg.Topo, cfg.Eps, cfg.Shards, shard.Options{Mode: mode, NoSync: true})
}

// startLocalSharded serves a shard.Router behind the same HTTP surface,
// via the httpapi Controller seam.
func startLocalSharded(cfg LocalConfig) (*LocalServer, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("scenario: a sharded server needs a state dir (each pod keeps its own WAL)")
	}
	router, err := openRouter(cfg.StateDir, cfg)
	if err != nil {
		return nil, err
	}
	ls := &LocalServer{router: router, serveErr: make(chan error, 1)}
	ls.api = httpapi.NewControllerServer(router)
	ls.server = &http.Server{Handler: ls.api.Handler()}
	if ls.listener, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		router.Close()
		return nil, err
	}
	ls.URL = "http://" + ls.listener.Addr().String()
	go func() { ls.serveErr <- ls.server.Serve(ls.listener) }()
	return ls, nil
}

// serveLocal puts an existing manager (and journal, when non-nil) behind
// a fresh loopback HTTP server. A journaled server exposes the WAL tail
// and fence endpoints, so a replica.Standby can follow it and a later
// failover can fence it — exactly the surface a real svcd primary has.
func serveLocal(mgr *core.Manager, journal *wal.Journal) (*LocalServer, error) {
	ls := &LocalServer{Mgr: mgr, journal: journal, serveErr: make(chan error, 1)}
	ls.api = httpapi.NewServer(mgr)
	if journal != nil {
		ls.api.SetWALTail(journal.Tail)
		ls.api.SetFence(journal.Fence)
	}
	ls.server = &http.Server{Handler: ls.api.Handler()}
	var err error
	if ls.listener, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	ls.URL = "http://" + ls.listener.Addr().String()
	go func() { ls.serveErr <- ls.server.Serve(ls.listener) }()
	return ls, nil
}

// Close drains the server and seals the journal.
func (ls *LocalServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.api.SetDraining(true)
	err := ls.server.Shutdown(ctx)
	if serr := <-ls.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if ls.router != nil {
		if cerr := ls.router.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	if ls.journal != nil {
		if cerr := ls.Mgr.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
		ls.Mgr.SetJournal(nil)
		if cerr := ls.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Crash kills the server abruptly: no drain, no checkpoint, no journal
// close. Whatever the group commit made durable is what a successor
// gets — the failover path must cope with exactly this.
func (ls *LocalServer) Crash() {
	ls.server.Close()
	<-ls.serveErr
}

// LocalPair is a primary LocalServer with a hot standby following its
// WAL over HTTP — the in-process replication deployment the failover
// scenarios run against. The standby keeps no background loop; it
// catches up synchronously during Failover, which keeps scenario runs
// deterministic.
type LocalPair struct {
	URL     string // current primary's base URL
	Primary *LocalServer

	cfg     LocalConfig
	standby *replica.Standby
	gen     int // standby mirror directories: standby-1, standby-2, ...
}

// StartLocalPair serves a journaled primary plus a following standby.
// cfg.StateDir must be set; the pair lays out primary/ and standby-N/
// subdirectories beneath it.
func StartLocalPair(cfg LocalConfig) (*LocalPair, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("scenario: a failover pair needs a state dir (the WAL is the replication stream)")
	}
	if cfg.Shards > 0 {
		return nil, errors.New("scenario: a failover pair is unsharded (standbys follow one WAL); sharded failovers crash-recover the router instead")
	}
	pcfg := cfg
	pcfg.StateDir = filepath.Join(cfg.StateDir, "primary")
	primary, err := StartLocal(pcfg)
	if err != nil {
		return nil, err
	}
	lp := &LocalPair{URL: primary.URL, Primary: primary, cfg: cfg}
	if err := lp.startStandby(); err != nil {
		primary.Close()
		return nil, err
	}
	return lp, nil
}

func (lp *LocalPair) startStandby() error {
	lp.gen++
	s, err := replica.New(replica.Config{
		Dir:     filepath.Join(lp.cfg.StateDir, fmt.Sprintf("standby-%d", lp.gen)),
		Topo:    lp.cfg.Topo,
		Eps:     lp.cfg.Eps,
		Fetch:   httpapi.NewClient(lp.Primary.URL, nil).WALTail,
		WALOpts: []wal.Option{wal.WithNoSync()},
		NoSync:  true,
	})
	if err != nil {
		return err
	}
	lp.standby = s
	return nil
}

// Failover switches controllers: drain the primary, promote the standby
// (Promote itself replays the durable tail first), crash the old primary,
// serve the promoted manager, and start a fresh standby behind it (so
// the next failover has somewhere to go). Returns the new primary URL.
func (lp *LocalPair) Failover() (string, error) {
	ctx := context.Background()
	lp.Primary.api.SetDraining(true)
	prom, err := lp.standby.Promote(ctx)
	if err != nil {
		return "", fmt.Errorf("scenario: promote standby: %w", err)
	}
	lp.Primary.Crash()
	srv, err := serveLocal(prom.Mgr, prom.Journal)
	if err != nil {
		prom.Journal.Close()
		return "", err
	}
	lp.Primary = srv
	lp.URL = srv.URL
	if err := lp.startStandby(); err != nil {
		return "", err
	}
	return srv.URL, nil
}

// Close stops the standby and drains the surviving primary.
func (lp *LocalPair) Close() error {
	var err error
	if lp.standby != nil {
		if cerr := lp.standby.Close(); cerr != nil {
			err = cerr
		}
	}
	if lp.Primary != nil {
		if cerr := lp.Primary.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
