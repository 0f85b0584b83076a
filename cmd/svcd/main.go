// Command svcd serves the SVC network manager over HTTP — the paper's
// admission-control component as a standalone daemon.
//
//	svcd -addr :8080                          # builtin paper topology
//	svcd -topo dc.json -eps 0.02              # custom datacenter, stricter SLA
//	svcd -state-dir /var/lib/svcd             # durable: journal + crash recovery
//
// With -state-dir every state-changing operation is committed to a
// write-ahead log before it is applied, and a restart replays the log
// (plus the latest snapshot) into a bit-identical manager: admitted jobs,
// fault state, and idempotency keys all survive a crash or SIGKILL.
//
// Flags: -addr, -topo, -eps, -state-dir, -no-sync, -role and -follow (a
// hot standby), and -shards (one ledger and log per aggregation subtree).
// Every node plans with Algorithm 1's min-max occupancy objective and
// compacts its log into a snapshot every 4 096 records; neither is a
// flag.
//
// API (see internal/httpapi):
//
//	POST   /v1/allocations        {"n":49,"mu":300,"sigma":120} -> placement
//	DELETE /v1/allocations/{id}
//	POST   /v1/dryrun
//	GET    /v1/status
//	GET    /v1/links?limit=10
//	POST   /v1/faults             {"machine":3} / {"link":7,"restore":true}
//	POST   /v1/repairs            {"job":1} or {} for all displaced jobs
//	GET    /v1/failures
//
// Mutating requests may carry an Idempotency-Key header; a repeated key
// replays the original outcome instead of re-executing, which makes
// client retries safe.
//
// Example session:
//
//	curl -s -X POST localhost:8080/v1/allocations -d '{"n":8,"mu":250,"sigma":100}'
//	curl -s localhost:8080/v1/status
//	curl -s -X POST localhost:8080/v1/faults -d '{"machine":3}'
//	curl -s -X POST localhost:8080/v1/repairs -d '{}'
//	curl -s localhost:8080/v1/failures
//	curl -s -X DELETE localhost:8080/v1/allocations/1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svcd:", err)
		os.Exit(1)
	}
}

// parseConfig turns the command line into a node configuration: flags
// and the topology file. What the flags may say together is daemon.New's
// to judge.
func parseConfig(args []string) (daemon.Config, error) {
	fs := flag.NewFlagSet("svcd", flag.ContinueOnError)
	var cfg daemon.Config
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "listen address")
	topoPath := fs.String("topo", "", "topology spec JSON (default: builtin paper topology)")
	fs.Float64Var(&cfg.Eps, "eps", 0.05, "risk factor for the probabilistic guarantee")
	fs.StringVar(&cfg.StateDir, "state-dir", "", "directory for the write-ahead log and snapshots (empty: in-memory only)")
	fs.BoolVar(&cfg.NoSync, "no-sync", false, "skip fsync on journal appends (faster, loses tail on power failure)")
	fs.StringVar(&cfg.Role, "role", "primary", "primary serves writes; standby follows a primary's WAL and serves reads until promoted")
	fs.StringVar(&cfg.Follow, "follow", "", "primary base URL a standby replicates from (e.g. http://10.0.0.1:8080)")
	fs.IntVar(&cfg.Shards, "shards", 0, "shard the control plane into one ledger+WAL per aggregation subtree; must equal the topology's pod count (0: unsharded). A request no single pod can host is rejected")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	var err error
	cfg.Topo, err = loadTopology(*topoPath)
	return cfg, err
}

func run(args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	durable := "in-memory"
	if cfg.StateDir != "" {
		durable = "journaled to " + cfg.StateDir
	}
	if cfg.Role == "standby" {
		durable = "standby following " + cfg.Follow + ", mirroring to " + cfg.StateDir
	}
	if cfg.Shards > 0 {
		durable = fmt.Sprintf("%d pod shards journaled to %s", cfg.Shards, cfg.StateDir)
	}
	log.Printf("svcd: serving %d machines (%d slots, %d jobs recovered) at eps=%v on %s, %s",
		len(cfg.Topo.Machines()), cfg.Topo.TotalSlots(), d.Recovered(), cfg.Eps,
		strings.TrimPrefix(d.URL(), "http://"), durable)
	d.Start()

	// Serve until interrupted, then drain connections and seal the journal.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-d.ServeErr():
		return err
	case sig := <-stop:
		log.Printf("svcd: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return d.Shutdown(ctx)
	}
}

func loadTopology(path string) (*topology.Topology, error) {
	if path == "" {
		return topology.NewThreeTier(topology.PaperConfig())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := topology.ReadSpec(f)
	if err != nil {
		return nil, err
	}
	return topology.NewFromSpec(spec)
}
