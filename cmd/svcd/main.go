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

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svcd:", err)
		os.Exit(1)
	}
}

// parseConfig turns the command line into a node configuration: flags,
// the topology file and the policy name. What the flags may say together
// is daemon.New's to judge.
func parseConfig(args []string) (daemon.Config, error) {
	fs := flag.NewFlagSet("svcd", flag.ContinueOnError)
	var cfg daemon.Config
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "listen address")
	topoPath := fs.String("topo", "", "topology spec JSON (default: builtin paper topology)")
	fs.Float64Var(&cfg.Eps, "eps", 0.05, "risk factor for the probabilistic guarantee")
	policy := fs.String("policy", "minmax", "placement policy: minmax|first-feasible|greedy-pack")
	fs.StringVar(&cfg.StateDir, "state-dir", "", "directory for the write-ahead log and snapshots (empty: in-memory only)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 4096, "journal records between snapshots")
	fs.BoolVar(&cfg.NoSync, "no-sync", false, "skip fsync on journal appends (faster, loses tail on power failure)")
	fs.StringVar(&cfg.Role, "role", "primary", "primary serves writes; standby follows a primary's WAL and serves reads until promoted")
	fs.StringVar(&cfg.Follow, "follow", "", "primary base URL a standby replicates from (e.g. http://10.0.0.1:8080)")
	fs.IntVar(&cfg.Shards, "shards", 0, "shard the control plane into one ledger+WAL per aggregation subtree; must equal the topology's pod count (0: unsharded)")
	fs.StringVar(&cfg.ShardMode, "shard-mode", "", "sharded admission mode, with -shards: strict (default; serialized, bit-identical to unsharded) | fast (pod-parallel, no cross-pod placements)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	var err error
	if cfg.Topo, err = loadTopology(*topoPath); err != nil {
		return cfg, err
	}
	switch *policy {
	case "minmax":
		cfg.MgrOpts = []core.ManagerOption{core.WithPolicy(core.MinMaxOccupancy)}
	case "first-feasible":
		cfg.MgrOpts = []core.ManagerOption{core.WithPolicy(core.FirstFeasible)}
	case "greedy-pack":
		cfg.MgrOpts = []core.ManagerOption{core.WithPolicy(core.GreedyPack)}
	default:
		return cfg, fmt.Errorf("unknown policy %q", *policy)
	}
	return cfg, nil
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
		mode := cfg.ShardMode
		if mode == "" {
			mode = "strict"
		}
		durable = fmt.Sprintf("%d pod shards (%s mode) journaled to %s", cfg.Shards, mode, cfg.StateDir)
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
